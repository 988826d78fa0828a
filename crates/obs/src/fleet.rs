//! Fleet counters: one shared tally of worker-fleet supervision events.
//!
//! Same shape as [`resilience`](mod@crate::resilience): plain relaxed atomics bumped from
//! the supervisor/hub hot paths (rank death handling must never block on
//! observability), snapshot on demand, stable-key JSON for the
//! `MonitorPort`'s `snapshotJson` and the flight recorder.

use crate::counters::counter_block;

counter_block! {
    /// Monotonic counters for fleet supervision, one instance process-wide
    /// (see [`fleet()`]). Fields are declared alphabetically: that is the
    /// JSON key order scrapers and the on-disk event log already read.
    pub struct FleetCounters => FleetSnapshot {
        /// Checkpoints promoted to committed (all ranks staged the step).
        checkpoints_committed => record_checkpoint_committed,
        /// Rank deaths detected (connection death / waitpid).
        deaths => record_death,
        /// Group generation bumps (each non-clean disconnect forces one).
        generation_bumps => record_generation_bump,
        /// Child processes launched (first launches and restarts).
        launches => record_launch,
        /// Messages relayed through the fleet hub's mailboxes.
        messages_relayed => record_message_relayed,
        /// Ranks that completed the join handshake after a restart.
        rejoins => record_rejoin,
        /// Restarts scheduled under backoff after a death.
        restarts => record_restart,
    }
}

static GLOBAL: FleetCounters = FleetCounters::new();

/// The process-wide fleet counters.
pub fn fleet() -> &'static FleetCounters {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = FleetCounters::default();
        assert_eq!(c.snapshot(), FleetSnapshot::default());
        c.record_launch();
        c.record_launch();
        c.record_death();
        c.record_restart();
        c.record_rejoin();
        c.record_generation_bump();
        c.record_checkpoint_committed();
        c.record_message_relayed();
        c.record_message_relayed();
        assert_eq!(
            c.snapshot(),
            FleetSnapshot {
                checkpoints_committed: 1,
                deaths: 1,
                generation_bumps: 1,
                launches: 2,
                messages_relayed: 2,
                rejoins: 1,
                restarts: 1,
            }
        );
    }

    #[test]
    fn json_has_stable_key_order() {
        let s = FleetSnapshot {
            launches: 4,
            deaths: 1,
            restarts: 1,
            rejoins: 1,
            generation_bumps: 1,
            checkpoints_committed: 6,
            messages_relayed: 120,
        };
        assert_eq!(
            s.to_json(),
            "{\"checkpoints_committed\":6,\"deaths\":1,\"generation_bumps\":1,\
             \"launches\":4,\"messages_relayed\":120,\"rejoins\":1,\"restarts\":1}"
        );
    }

    #[test]
    fn global_instance_is_reachable() {
        let before = fleet().snapshot().launches;
        fleet().record_launch();
        assert!(fleet().snapshot().launches > before);
    }
}
