//! The supervisor: launch, exit polling, restart under backoff, shutdown.

use super::{rank_backoff_seed, FleetHub, LaunchSpec, ProcessHandle, RankLauncher};
use crate::framework::Framework;
use cca_core::resilience::{
    BackoffSchedule, BreakerPolicy, BreakerState, CircuitBreaker, Clock, RetryPolicy,
};
use cca_core::ConfigEvent;
use cca_rpc::MuxServer;
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// One entry in the supervisor's event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetEvent {
    /// A rank incarnation was launched.
    Launched {
        /// Rank launched.
        rank: u32,
        /// Incarnation launched.
        incarnation: u32,
        /// Supervisor clock time, ns.
        at_ns: u64,
    },
    /// A running rank passed its health window.
    Healthy {
        /// Rank that became healthy.
        rank: u32,
        /// Its incarnation.
        incarnation: u32,
        /// Supervisor clock time, ns.
        at_ns: u64,
    },
    /// A rank exited without a clean departure.
    Died {
        /// Rank that died.
        rank: u32,
        /// Incarnation that died.
        incarnation: u32,
        /// Exit status (negated signal for signal deaths).
        status: i32,
        /// Supervisor clock time, ns.
        at_ns: u64,
    },
    /// A restart was scheduled under backoff.
    RestartScheduled {
        /// Rank to restart.
        rank: u32,
        /// The incarnation the restart will launch.
        incarnation: u32,
        /// Backoff delay before the launch, ns.
        delay_ns: u64,
        /// Supervisor clock time, ns.
        at_ns: u64,
    },
    /// A restarted rank completed the hub join handshake.
    Rejoined {
        /// Rank that rejoined.
        rank: u32,
        /// Its new incarnation.
        incarnation: u32,
        /// Supervisor clock time, ns.
        at_ns: u64,
    },
    /// A rank stopped for good (clean exit, departure, or shutdown).
    Stopped {
        /// Rank that stopped.
        rank: u32,
        /// Final exit status.
        status: i32,
        /// Supervisor clock time, ns.
        at_ns: u64,
    },
}

impl FleetEvent {
    /// One JSONL line for the supervisor event log.
    pub fn to_json(&self) -> String {
        match self {
            FleetEvent::Launched { rank, incarnation, at_ns } => format!(
                "{{\"src\":\"supervisor\",\"event\":\"launched\",\"rank\":{rank},\"incarnation\":{incarnation},\"at_ns\":{at_ns}}}"
            ),
            FleetEvent::Healthy { rank, incarnation, at_ns } => format!(
                "{{\"src\":\"supervisor\",\"event\":\"healthy\",\"rank\":{rank},\"incarnation\":{incarnation},\"at_ns\":{at_ns}}}"
            ),
            FleetEvent::Died { rank, incarnation, status, at_ns } => format!(
                "{{\"src\":\"supervisor\",\"event\":\"died\",\"rank\":{rank},\"incarnation\":{incarnation},\"status\":{status},\"at_ns\":{at_ns}}}"
            ),
            FleetEvent::RestartScheduled { rank, incarnation, delay_ns, at_ns } => format!(
                "{{\"src\":\"supervisor\",\"event\":\"restart_scheduled\",\"rank\":{rank},\"incarnation\":{incarnation},\"delay_ns\":{delay_ns},\"at_ns\":{at_ns}}}"
            ),
            FleetEvent::Rejoined { rank, incarnation, at_ns } => format!(
                "{{\"src\":\"supervisor\",\"event\":\"rejoined\",\"rank\":{rank},\"incarnation\":{incarnation},\"at_ns\":{at_ns}}}"
            ),
            FleetEvent::Stopped { rank, status, at_ns } => format!(
                "{{\"src\":\"supervisor\",\"event\":\"stopped\",\"rank\":{rank},\"status\":{status},\"at_ns\":{at_ns}}}"
            ),
        }
    }
}

/// Fleet tuning. Defaults suit the in-repo integration tests: fast
/// restarts, short health window.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of ranks.
    pub size: usize,
    /// Hub bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Fleet seed: mixes into per-rank backoff jitter streams.
    pub seed: u64,
    /// Backoff base, ns.
    pub base_backoff_ns: u64,
    /// Backoff cap, ns.
    pub max_backoff_ns: u64,
    /// A restarted rank counts healthy after surviving this long.
    pub healthy_after_ns: u64,
    /// Require a completed hub join (not just survival) for healthy;
    /// mock-launcher tests turn this off since nothing ever dials in.
    pub require_join_for_healthy: bool,
}

impl FleetConfig {
    /// Defaults for a fleet of `size` ranks.
    pub fn new(size: usize) -> Self {
        FleetConfig {
            size,
            addr: "127.0.0.1:0".to_string(),
            seed: 0x5eed_f1ee,
            base_backoff_ns: 50_000_000,
            max_backoff_ns: 2_000_000_000,
            healthy_after_ns: 200_000_000,
            require_join_for_healthy: true,
        }
    }
}

enum SlotState {
    Idle,
    Running {
        handle: Box<dyn ProcessHandle>,
        started_ns: u64,
        healthy: bool,
    },
    Waiting {
        restart_at_ns: u64,
    },
    Stopped {
        status: i32,
    },
}

struct Slot {
    state: SlotState,
    incarnation: u32,
    /// The rank's seeded decorrelated-jitter policy (see
    /// [`rank_backoff_seed`]); `backoff` restarts from its `schedule()`
    /// whenever the rank proves healthy.
    policy: RetryPolicy,
    backoff: BackoffSchedule,
    breaker: CircuitBreaker,
    /// Highest incarnation whose hub join we already turned into a
    /// Rejoined event.
    seen_join_inc: u32,
}

/// Launches and supervises the rank fleet: exit polling, per-rank
/// circuit-breaker quarantine, decorrelated-jitter restarts, rejoin
/// bookkeeping, and zombie-free shutdown. Drive it with
/// [`FleetSupervisor::tick`] under a [`MockClock`]
/// (deterministic tests) or [`FleetSupervisor::start_monitor`] under the
/// [`SystemClock`] (real fleets).
///
/// [`MockClock`]: cca_core::resilience::MockClock
/// [`SystemClock`]: cca_core::resilience::SystemClock
pub struct FleetSupervisor {
    config: FleetConfig,
    hub: Arc<FleetHub>,
    server: Arc<MuxServer>,
    launcher: Arc<dyn RankLauncher>,
    clock: Arc<dyn Clock>,
    slots: Mutex<Vec<Slot>>,
    events: Mutex<Vec<FleetEvent>>,
    framework: Mutex<Option<Weak<Framework>>>,
    stop: AtomicBool,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl FleetSupervisor {
    /// Binds the hub server ([`FleetHub::serve`]) and prepares (but does
    /// not launch) the fleet.
    pub fn new(
        config: FleetConfig,
        launcher: Arc<dyn RankLauncher>,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<Arc<Self>> {
        let (hub, server) = FleetHub::serve(config.size, &config.addr)?;
        let slots = (0..config.size)
            .map(|rank| {
                let policy =
                    RetryPolicy::new(u32::MAX, config.base_backoff_ns, config.max_backoff_ns)
                        .with_jitter_seed(rank_backoff_seed(config.seed, rank));
                Slot {
                    state: SlotState::Idle,
                    incarnation: 0,
                    backoff: policy.schedule(),
                    policy,
                    breaker: CircuitBreaker::new(
                        BreakerPolicy::new(1, (config.base_backoff_ns / 2).max(1)),
                        Arc::clone(&clock),
                    ),
                    seen_join_inc: 0,
                }
            })
            .collect();
        Ok(Arc::new(FleetSupervisor {
            config,
            hub,
            server,
            launcher,
            clock,
            slots: Mutex::new(slots),
            events: Mutex::new(Vec::new()),
            framework: Mutex::new(None),
            stop: AtomicBool::new(false),
            monitor: Mutex::new(None),
        }))
    }

    /// The hub's actual bound address (`host:port`).
    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// The fleet hub.
    pub fn hub(&self) -> &Arc<FleetHub> {
        &self.hub
    }

    /// A copy of the supervision event log.
    pub fn events(&self) -> Vec<FleetEvent> {
        self.events.lock().clone()
    }

    /// Current breaker state for `rank`'s restart quarantine.
    pub fn breaker_state(&self, rank: usize) -> BreakerState {
        self.slots.lock()[rank].breaker.state()
    }

    /// Routes `RankDied`/`RankRejoined` config events to a framework's
    /// configuration listeners.
    pub fn attach_framework(&self, framework: &Arc<Framework>) {
        *self.framework.lock() = Some(Arc::downgrade(framework));
    }

    fn emit_event(&self, event: ConfigEvent) {
        let fw = self.framework.lock().as_ref().and_then(Weak::upgrade);
        if let Some(fw) = fw {
            fw.emit(event);
        }
    }

    fn push_event(&self, ev: FleetEvent) {
        self.events.lock().push(ev);
    }

    fn launch_slot(&self, rank: usize, slot: &mut Slot, now: u64) {
        let incarnation = slot.incarnation + 1;
        let spec = LaunchSpec {
            rank: rank as u32,
            incarnation,
            size: self.config.size as u32,
            addr: self.addr(),
        };
        match self.launcher.launch(&spec) {
            Ok(handle) => {
                slot.incarnation = incarnation;
                slot.state = SlotState::Running {
                    handle,
                    started_ns: now,
                    healthy: false,
                };
                cca_obs::fleet().record_launch();
                self.push_event(FleetEvent::Launched {
                    rank: rank as u32,
                    incarnation,
                    at_ns: now,
                });
            }
            Err(_) => {
                // Spawn failure behaves like an instant death: backoff
                // and retry, the breaker keeps the cadence honest.
                slot.breaker.record_failure();
                let delay = slot.backoff.next().expect("a backoff schedule never ends");
                slot.state = SlotState::Waiting {
                    restart_at_ns: now.saturating_add(delay),
                };
                self.push_event(FleetEvent::RestartScheduled {
                    rank: rank as u32,
                    incarnation: incarnation + 1,
                    delay_ns: delay,
                    at_ns: now,
                });
            }
        }
    }

    /// Launches every rank at incarnation 1.
    pub fn start(&self) {
        let now = self.clock.now_ns();
        let mut slots = self.slots.lock();
        for (rank, slot) in slots.iter_mut().enumerate() {
            if matches!(slot.state, SlotState::Idle) {
                self.launch_slot(rank, slot, now);
            }
        }
    }

    /// One supervision pass: reap exits, schedule restarts, admit
    /// probes through each rank's breaker, record health and rejoins.
    /// Deterministic: all timing comes from the injected [`Clock`].
    /// The pass's `RankDied`/`RankRejoined` events reach the framework's
    /// listeners after the slots are released, so a listener may call
    /// back into the supervisor.
    pub fn tick(&self) {
        let now = self.clock.now_ns();
        let mut notices = Vec::new();
        let mut slots = self.slots.lock();
        for (rank, slot) in slots.iter_mut().enumerate() {
            match &mut slot.state {
                SlotState::Running {
                    handle,
                    started_ns,
                    healthy,
                } => {
                    if let Some(status) = handle.poll_exit() {
                        let incarnation = slot.incarnation;
                        if self.stop.load(Ordering::Acquire)
                            || self.hub.departed(rank)
                            || self.hub.all_results().is_some()
                            || status == 0
                        {
                            slot.state = SlotState::Stopped { status };
                            self.push_event(FleetEvent::Stopped {
                                rank: rank as u32,
                                status,
                                at_ns: now,
                            });
                            continue;
                        }
                        cca_obs::fleet().record_death();
                        slot.breaker.record_failure();
                        let delay = slot.backoff.next().expect("a backoff schedule never ends");
                        slot.state = SlotState::Waiting {
                            restart_at_ns: now.saturating_add(delay),
                        };
                        cca_obs::fleet().record_restart();
                        self.push_event(FleetEvent::Died {
                            rank: rank as u32,
                            incarnation,
                            status,
                            at_ns: now,
                        });
                        self.push_event(FleetEvent::RestartScheduled {
                            rank: rank as u32,
                            incarnation: incarnation + 1,
                            delay_ns: delay,
                            at_ns: now,
                        });
                        notices.push(ConfigEvent::RankDied {
                            rank: rank as u64,
                            incarnation: u64::from(incarnation),
                            generation: self.hub.generation(),
                        });
                        continue;
                    }
                    if let Some((jinc, _)) = self.hub.latest_join(rank) {
                        if jinc == slot.incarnation && slot.seen_join_inc < jinc {
                            slot.seen_join_inc = jinc;
                            if jinc > 1 {
                                cca_obs::fleet().record_rejoin();
                                self.push_event(FleetEvent::Rejoined {
                                    rank: rank as u32,
                                    incarnation: jinc,
                                    at_ns: now,
                                });
                                notices.push(ConfigEvent::RankRejoined {
                                    rank: rank as u64,
                                    incarnation: u64::from(jinc),
                                    generation: self.hub.generation(),
                                });
                            }
                        }
                    }
                    let joined_ok = !self.config.require_join_for_healthy || self.hub.present(rank);
                    if !*healthy
                        && now.saturating_sub(*started_ns) >= self.config.healthy_after_ns
                        && joined_ok
                    {
                        *healthy = true;
                        slot.breaker.record_success();
                        slot.backoff = slot.policy.schedule();
                        self.push_event(FleetEvent::Healthy {
                            rank: rank as u32,
                            incarnation: slot.incarnation,
                            at_ns: now,
                        });
                    }
                }
                SlotState::Waiting { restart_at_ns } => {
                    if now >= *restart_at_ns
                        && !self.stop.load(Ordering::Acquire)
                        && slot.breaker.admit()
                    {
                        self.launch_slot(rank, slot, now);
                    }
                }
                SlotState::Idle | SlotState::Stopped { .. } => {}
            }
        }
        drop(slots);
        for event in notices {
            self.emit_event(event);
        }
    }

    /// Spawns a real-time monitor thread calling [`FleetSupervisor::tick`]
    /// every `interval` until shutdown.
    pub fn start_monitor(self: &Arc<Self>, interval: Duration) {
        let me = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("cca-fleet-monitor".into())
            .spawn(move || {
                while !me.stop.load(Ordering::Acquire) {
                    me.tick();
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn fleet monitor thread");
        *self.monitor.lock() = Some(handle);
    }

    /// Delivers SIGKILL to `rank`'s current incarnation (fault
    /// injection). Returns false if the rank is not running.
    pub fn kill_rank(&self, rank: usize) -> bool {
        let mut slots = self.slots.lock();
        match &mut slots[rank].state {
            SlotState::Running { handle, .. } => {
                handle.kill();
                true
            }
            _ => false,
        }
    }

    /// Stops supervision, kills and reaps every child (collecting exit
    /// statuses — zero zombies), shuts the hub server down, and writes
    /// the event log for forensics. Returns `(rank, status)` for every
    /// rank that ever ran; `None` for ranks with no live process.
    pub fn shutdown(&self) -> Vec<(usize, Option<i32>)> {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.monitor.lock().take() {
            let _ = handle.join();
        }
        let now = self.clock.now_ns();
        let mut statuses = Vec::with_capacity(self.config.size);
        {
            let mut slots = self.slots.lock();
            for (rank, slot) in slots.iter_mut().enumerate() {
                let status = match &mut slot.state {
                    SlotState::Running { handle, .. } => {
                        handle.kill();
                        let status = handle.wait_exit();
                        self.push_event(FleetEvent::Stopped {
                            rank: rank as u32,
                            status,
                            at_ns: now,
                        });
                        Some(status)
                    }
                    SlotState::Stopped { status } => Some(*status),
                    SlotState::Idle | SlotState::Waiting { .. } => None,
                };
                if let Some(s) = status {
                    slot.state = SlotState::Stopped { status: s };
                }
                statuses.push((rank, status));
            }
        }
        self.server.shutdown();
        self.write_event_log();
        statuses
    }

    /// Writes the supervisor + hub event log as JSONL under
    /// `CCA_FLIGHT_DIR` (no-op when unset). CI uploads this next to the
    /// flight-recorder incidents on a red fleet lane.
    fn write_event_log(&self) -> Option<PathBuf> {
        let dir = std::env::var_os("CCA_FLIGHT_DIR")?;
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("fleet_supervisor_{}.jsonl", std::process::id()));
        let mut lines: Vec<String> = self.events.lock().iter().map(FleetEvent::to_json).collect();
        lines.extend(self.hub.log_lines());
        lines.push(cca_obs::fleet().snapshot().to_json());
        std::fs::write(&path, lines.join("\n") + "\n").ok()?;
        Some(path)
    }
}
