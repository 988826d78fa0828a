//! Fleet counters: one shared tally of worker-fleet supervision events.
//!
//! Same shape as [`resilience`](mod@crate::resilience): plain relaxed atomics bumped from
//! the supervisor/hub hot paths (rank death handling must never block on
//! observability), snapshot on demand, stable-key JSON for the
//! ObservabilityPort and the flight recorder.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters for fleet supervision, one instance process-wide
/// (see [`fleet()`]).
#[derive(Debug)]
pub struct FleetCounters {
    /// Child processes launched (first launches and restarts).
    launches: AtomicU64,
    /// Rank deaths detected (connection death / waitpid).
    deaths: AtomicU64,
    /// Restarts scheduled under backoff after a death.
    restarts: AtomicU64,
    /// Ranks that completed the join handshake after a restart.
    rejoins: AtomicU64,
    /// Group generation bumps (each non-clean disconnect forces one).
    generation_bumps: AtomicU64,
    /// Checkpoints promoted to committed (all ranks staged the step).
    checkpoints_committed: AtomicU64,
    /// Messages relayed through the fleet hub's mailboxes.
    messages_relayed: AtomicU64,
}

/// A point-in-time copy of [`FleetCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// Child processes launched (first launches and restarts).
    pub launches: u64,
    /// Rank deaths detected.
    pub deaths: u64,
    /// Restarts scheduled under backoff.
    pub restarts: u64,
    /// Ranks rejoined after restart.
    pub rejoins: u64,
    /// Group generation bumps.
    pub generation_bumps: u64,
    /// Checkpoints promoted to committed.
    pub checkpoints_committed: u64,
    /// Messages relayed through the hub.
    pub messages_relayed: u64,
}

impl FleetSnapshot {
    /// Stable-key-order JSON object, consumed by scrape endpoints and the
    /// flight recorder.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"checkpoints_committed\":{},\"deaths\":{},\"generation_bumps\":{},\
             \"launches\":{},\"messages_relayed\":{},\"rejoins\":{},\"restarts\":{}}}",
            self.checkpoints_committed,
            self.deaths,
            self.generation_bumps,
            self.launches,
            self.messages_relayed,
            self.rejoins,
            self.restarts,
        )
    }
}

impl FleetCounters {
    /// Records a child-process launch.
    pub fn record_launch(&self) {
        self.launches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a detected rank death.
    pub fn record_death(&self) {
        self.deaths.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a restart scheduled under backoff.
    pub fn record_restart(&self) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed post-restart rejoin.
    pub fn record_rejoin(&self) {
        self.rejoins.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a group generation bump.
    pub fn record_generation_bump(&self) {
        self.generation_bumps.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a checkpoint promoted to committed.
    pub fn record_checkpoint_committed(&self) {
        self.checkpoints_committed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one message relayed through the hub.
    pub fn record_message_relayed(&self) {
        self.messages_relayed.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            launches: self.launches.load(Ordering::Relaxed),
            deaths: self.deaths.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            rejoins: self.rejoins.load(Ordering::Relaxed),
            generation_bumps: self.generation_bumps.load(Ordering::Relaxed),
            checkpoints_committed: self.checkpoints_committed.load(Ordering::Relaxed),
            messages_relayed: self.messages_relayed.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter (tests).
    pub fn reset(&self) {
        self.launches.store(0, Ordering::Relaxed);
        self.deaths.store(0, Ordering::Relaxed);
        self.restarts.store(0, Ordering::Relaxed);
        self.rejoins.store(0, Ordering::Relaxed);
        self.generation_bumps.store(0, Ordering::Relaxed);
        self.checkpoints_committed.store(0, Ordering::Relaxed);
        self.messages_relayed.store(0, Ordering::Relaxed);
    }
}

static GLOBAL: FleetCounters = FleetCounters {
    launches: AtomicU64::new(0),
    deaths: AtomicU64::new(0),
    restarts: AtomicU64::new(0),
    rejoins: AtomicU64::new(0),
    generation_bumps: AtomicU64::new(0),
    checkpoints_committed: AtomicU64::new(0),
    messages_relayed: AtomicU64::new(0),
};

/// The process-wide fleet counters.
pub fn fleet() -> &'static FleetCounters {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = FleetCounters {
            launches: AtomicU64::new(0),
            deaths: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            rejoins: AtomicU64::new(0),
            generation_bumps: AtomicU64::new(0),
            checkpoints_committed: AtomicU64::new(0),
            messages_relayed: AtomicU64::new(0),
        };
        c.record_launch();
        c.record_launch();
        c.record_death();
        c.record_restart();
        c.record_rejoin();
        c.record_generation_bump();
        c.record_checkpoint_committed();
        c.record_message_relayed();
        c.record_message_relayed();
        let s = c.snapshot();
        assert_eq!(s.launches, 2);
        assert_eq!(s.deaths, 1);
        assert_eq!(s.restarts, 1);
        assert_eq!(s.rejoins, 1);
        assert_eq!(s.generation_bumps, 1);
        assert_eq!(s.checkpoints_committed, 1);
        assert_eq!(s.messages_relayed, 2);
        c.reset();
        assert_eq!(c.snapshot().deaths, 0);
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
