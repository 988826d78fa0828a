//! End-to-end resilience: retry/backoff on a mock clock, circuit-breaker
//! quarantine and recovery published as configuration events and visible
//! through the MonitorPort, deadlines turning wedged transports into
//! errors, and the deterministic fault matrix (`CCA_FAULT_SEED`) the CI
//! `fault-matrix` job replays across seeds {1, 7, 42, 1999}.
//!
//! No test here sleeps on the wall clock: all time is simulated through
//! `MockClock`, so the suite is exactly as fast and exactly as
//! deterministic on a loaded CI runner as on a quiet laptop.

use cca::core::event::{ConfigListener, RecordingListener};
use cca::core::resilience::{
    fault_seed_from_env, BreakerPolicy, CallPolicy, Clock, MockClock, RetryPolicy,
};
use cca::core::{CachedPort, CcaError, CcaServices, Component, ConfigEvent, PortHandle};
use cca::framework::ports::MonitorPort as _;
use cca::framework::{ConnectionPolicy, Framework};
use cca::repository::Repository;
use cca::rpc::{FaultTransport, LoopbackTransport, ObjRef, Orb};
use cca::sidl::{DynObject, DynValue, SidlError};
use cca_data::TypeMap;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Test fixture: a provider whose port fails its first N calls.
// ---------------------------------------------------------------------

trait WorkPort: Send + Sync {
    fn work(&self) -> Result<u64, CcaError>;
}

struct Flaky {
    label: u64,
    fail_first: AtomicU64,
    calls: AtomicU64,
}

impl Flaky {
    fn new(label: u64, fail_first: u64) -> Arc<Self> {
        Arc::new(Flaky {
            label,
            fail_first: AtomicU64::new(fail_first),
            calls: AtomicU64::new(0),
        })
    }
}

impl WorkPort for Flaky {
    fn work(&self) -> Result<u64, CcaError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if self.fail_first.load(Ordering::SeqCst) > 0 {
            self.fail_first.fetch_sub(1, Ordering::SeqCst);
            Err(CcaError::Framework("injected provider fault".into()))
        } else {
            Ok(self.label)
        }
    }
}

struct FlakyProvider {
    port: Arc<Flaky>,
}

impl Component for FlakyProvider {
    fn component_type(&self) -> &str {
        "test.FlakyProvider"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        let typed: Arc<dyn WorkPort> = self.port.clone();
        services.add_provides_port(PortHandle::new("out", "test.WorkPort", typed))
    }
}

struct Consumer;
impl Component for Consumer {
    fn component_type(&self) -> &str {
        "test.Consumer"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        services.register_uses_port("in", "test.WorkPort", TypeMap::new())
    }
}

/// A uses slot whose one connection is `provider`, under `policy`: the
/// tests below drive the retry loop production uses, `CachedPort::call`.
fn policy_slot<P: ?Sized + Send + Sync + 'static>(
    policy: CallPolicy,
    provider: Arc<P>,
) -> CachedPort<P> {
    let user = CcaServices::new("user");
    user.register_uses_port("in", "test.Port", TypeMap::new())
        .unwrap();
    user.set_call_policy("in", Arc::new(policy)).unwrap();
    user.connect_uses("in", PortHandle::new("out", "test.Port", provider))
        .unwrap();
    user.cached_port("in")
}

// ---------------------------------------------------------------------
// Retry + backoff timing, fully simulated.
// ---------------------------------------------------------------------

#[test]
fn backoff_timing_is_exact_on_the_mock_clock() {
    let clock = MockClock::new();
    let policy = CallPolicy::with_clock(clock.clone())
        .with_retry(RetryPolicy::new(4, 1_000, 50_000).with_jitter_seed(7));
    // The waits the schedule will produce, computed up front: the policy
    // must sleep exactly these amounts, in order, on the injected clock.
    let expected: Vec<u64> = RetryPolicy::new(4, 1_000, 50_000)
        .with_jitter_seed(7)
        .schedule()
        .take(3)
        .collect();

    let attempts = AtomicU64::new(0);
    let timeline = parking_lot::Mutex::new(Vec::new());
    let always_fails: Arc<dyn WorkPort> = Flaky::new(0, u64::MAX);
    let result = policy_slot(policy, always_fails).call(|p| {
        timeline.lock().push(clock.now_ns());
        attempts.fetch_add(1, Ordering::SeqCst);
        p.work()
    });
    assert!(result.is_err());
    assert_eq!(attempts.load(Ordering::SeqCst), 4, "all attempts used");

    let timeline = timeline.lock();
    assert_eq!(timeline[0], 0);
    for (i, w) in expected.iter().enumerate() {
        assert_eq!(
            timeline[i + 1] - timeline[i],
            *w,
            "attempt {} started exactly one backoff wait after attempt {}",
            i + 1,
            i
        );
    }
}

// ---------------------------------------------------------------------
// Quarantine → events → monitor → recovery, through the framework.
// ---------------------------------------------------------------------

#[test]
fn quarantine_recovery_round_trip_with_events_and_monitor() {
    let fw = Framework::new(Repository::new());
    let rec = RecordingListener::new();
    fw.add_listener(rec.clone());

    let p0 = Flaky::new(0, u64::MAX); // provider 0 fails forever...
    let p1 = Flaky::new(1, 0); // ...provider 1 is healthy.
    fw.add_instance("p0", Arc::new(FlakyProvider { port: p0.clone() }))
        .unwrap();
    fw.add_instance("p1", Arc::new(FlakyProvider { port: p1 }))
        .unwrap();
    fw.add_instance("u0", Arc::new(Consumer)).unwrap();

    let clock = MockClock::new();
    let policy = CallPolicy::with_clock(clock.clone())
        .with_retry(RetryPolicy::new(6, 100, 1_000).with_jitter_seed(1))
        .with_breaker(BreakerPolicy::new(2, 10_000));
    fw.connect_with_call_policy("u0", "in", "p0", "out", policy)
        .unwrap();
    fw.connect("u0", "in", "p1", "out").unwrap();

    let services = fw.services("u0").unwrap();
    let monitor = fw.install_monitor().unwrap();
    let mut port = services.cached_port::<dyn WorkPort>("in");

    // The call retries p0 until its breaker opens (threshold 2), then
    // fails over to p1 and succeeds — one call() from the caller's view.
    let got = port.call(|p| p.work()).unwrap();
    assert_eq!(got, 1, "failover landed on the healthy provider");
    assert_eq!(p0.calls.load(Ordering::SeqCst), 2, "p0 tried until tripped");

    // The trip was published as a configuration event...
    assert!(rec.events().iter().any(|e| matches!(
        e,
        ConfigEvent::ProviderQuarantined { provider, .. } if provider == "p0"
    )));
    // ...fan-out now skips the quarantined provider (§6.1 keeps this
    // legal: a uses port sees "zero or more" providers)...
    assert_eq!(services.get_ports("in").unwrap().len(), 1);
    // ...and the monitor shows the open breaker live.
    let json = monitor.0.resilienceJson().unwrap();
    assert!(json.contains("\"state\":\"open\""), "{json}");

    // Heal the provider and pass the cooldown: the next resolution
    // half-opens the breaker, the probe succeeds, recovery is published.
    p0.fail_first.store(0, Ordering::SeqCst);
    clock.advance_ns(20_000);
    let breaker = services.connection_breaker("in", 0).unwrap().unwrap();
    assert!(
        breaker.admit(),
        "cooldown elapsed: half-open grants a probe"
    );
    breaker.record_success();
    assert!(rec.events().iter().any(|e| matches!(
        e,
        ConfigEvent::ProviderRecovered { provider, .. } if provider == "p0"
    )));
    assert_eq!(services.get_ports("in").unwrap().len(), 2);
    let json = monitor.0.resilienceJson().unwrap();
    assert!(!json.contains("\"state\":\"open\""), "{json}");
}

/// Appends its tag to a log shared with other listeners, so the log shows
/// the order in which the framework reached them.
struct Tagged(usize, Arc<parking_lot::Mutex<Vec<usize>>>);

impl ConfigListener for Tagged {
    fn on_event(&self, _event: &ConfigEvent) {
        self.1.lock().push(self.0);
    }
}

#[test]
fn listeners_hear_every_configuration_event_in_registration_order() {
    let fw = Framework::new(Repository::new());
    let first = RecordingListener::new();
    let second = RecordingListener::new();
    fw.add_listener(first.clone());
    fw.add_listener(second.clone());
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    fw.add_listener(Arc::new(Tagged(0, Arc::clone(&order))));
    fw.add_listener(Arc::new(Tagged(1, Arc::clone(&order))));

    let healthy = Flaky::new(0, 0);
    let flaky = Flaky::new(1, 2); // fails twice, then heals
    fw.add_instance("p0", Arc::new(FlakyProvider { port: healthy }))
        .unwrap();
    fw.add_instance("p1", Arc::new(FlakyProvider { port: flaky }))
        .unwrap();
    fw.add_instance("u0", Arc::new(Consumer)).unwrap();
    let clock = MockClock::new();
    let policy = CallPolicy::with_clock(clock.clone()).with_breaker(BreakerPolicy::new(2, 10_000));
    fw.connect_with_call_policy("u0", "in", "p0", "out", policy)
        .unwrap();
    fw.redirect("u0", "in", "p0", "p1", "out").unwrap();

    // Two failed calls trip the new connection's breaker; after the
    // cooldown the next call is the half-open probe, and it succeeds.
    let mut port = fw.services("u0").unwrap().cached_port::<dyn WorkPort>("in");
    assert!(port.call(|p| p.work()).is_err());
    assert!(port.call(|p| p.work()).is_err());
    clock.advance_ns(20_000);
    assert_eq!(port.call(|p| p.work()).unwrap(), 1);

    fw.disconnect("u0", "in", "p1").unwrap();
    for name in ["u0", "p0", "p1"] {
        fw.destroy_instance(name).unwrap();
    }

    let s = |v: &str| v.to_string();
    let added = |instance: &str, component_type: &str| ConfigEvent::ComponentAdded {
        instance: s(instance),
        component_type: s(component_type),
    };
    let connected = |provider: &str| ConfigEvent::Connected {
        user: s("u0"),
        uses_port: s("in"),
        provider: s(provider),
        provides_port: s("out"),
        port_type: s("test.WorkPort"),
    };
    let disconnected = |provider: &str| ConfigEvent::Disconnected {
        user: s("u0"),
        uses_port: s("in"),
        provider: s(provider),
    };
    let removed = |instance: &str| ConfigEvent::ComponentRemoved {
        instance: s(instance),
    };
    let expected = vec![
        added("p0", "test.FlakyProvider"),
        added("p1", "test.FlakyProvider"),
        added("u0", "test.Consumer"),
        connected("p0"),
        disconnected("p0"),
        connected("p1"),
        ConfigEvent::Redirected {
            user: s("u0"),
            uses_port: s("in"),
            old_provider: s("p0"),
            new_provider: s("p1"),
        },
        ConfigEvent::ProviderQuarantined {
            user: s("u0"),
            uses_port: s("in"),
            provider: s("p1"),
            consecutive_failures: 2,
        },
        ConfigEvent::ProviderRecovered {
            user: s("u0"),
            uses_port: s("in"),
            provider: s("p1"),
        },
        disconnected("p1"),
        removed("u0"),
        removed("p0"),
        removed("p1"),
    ];
    assert_eq!(first.events(), expected);
    assert_eq!(second.events(), expected);
    // Each event reached the listeners in the order they were added.
    let order = order.lock();
    assert_eq!(order.len(), 2 * expected.len());
    assert!(order.chunks(2).all(|pair| pair == [0, 1]), "{:?}", *order);
}

// ---------------------------------------------------------------------
// Deadlines: a wedged proxied connection errors instead of hanging.
// ---------------------------------------------------------------------

#[test]
fn wedged_proxied_call_is_bounded_by_the_policy_deadline() {
    struct WedgedServant {
        clock: Arc<MockClock>,
    }
    impl DynObject for WedgedServant {
        fn sidl_type(&self) -> &str {
            "test.WorkPort"
        }
        fn invoke(&self, _m: &str, _a: Vec<DynValue>) -> Result<DynValue, SidlError> {
            // Models a wedge by charging simulated time.
            self.clock.advance_ns(1_000_000);
            Ok(DynValue::Long(0))
        }
    }
    struct WedgedProvider {
        clock: Arc<MockClock>,
    }
    impl Component for WedgedProvider {
        fn component_type(&self) -> &str {
            "test.WedgedProvider"
        }
        fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
            let servant = Arc::new(WedgedServant {
                clock: self.clock.clone(),
            });
            let dynamic: Arc<dyn DynObject> = servant;
            services.add_provides_port(
                PortHandle::new("out", "test.WorkPort", Arc::clone(&dynamic)).with_dynamic(dynamic),
            )
        }
    }

    let fw = Framework::with_policy(Repository::new(), ConnectionPolicy::Proxied);
    let clock = MockClock::new();
    fw.add_instance(
        "wedged",
        Arc::new(WedgedProvider {
            clock: clock.clone(),
        }),
    )
    .unwrap();
    fw.add_instance("u0", Arc::new(Consumer)).unwrap();
    let policy = CallPolicy::with_clock(clock.clone()).with_deadline_ns(10_000);
    fw.connect_with_call_policy("u0", "in", "wedged", "out", policy)
        .unwrap();

    let handle = fw.services("u0").unwrap().get_port("in").unwrap();
    let err = handle
        .dynamic()
        .unwrap()
        .invoke("work", vec![])
        .unwrap_err();
    let cca: CcaError = err.into();
    assert!(
        matches!(cca, CcaError::DeadlineExceeded(_)),
        "wedged transport must surface as DeadlineExceeded, got {cca:?}"
    );
}

// ---------------------------------------------------------------------
// The CI fault matrix: a seed-parameterized scenario whose outcome is a
// pure function of CCA_FAULT_SEED, with a trace artifact for forensics.
// ---------------------------------------------------------------------

#[test]
fn fault_matrix_scenario_is_deterministic_per_seed() {
    let seed = fault_seed_from_env();

    // One scenario run: an ORB servant behind a fault-injecting transport,
    // driven through a retry policy. Returns the per-call outcome vector.
    let run_scenario = || -> Vec<bool> {
        struct Answer;
        impl DynObject for Answer {
            fn sidl_type(&self) -> &str {
                "test.Answer"
            }
            fn invoke(&self, _m: &str, _a: Vec<DynValue>) -> Result<DynValue, SidlError> {
                Ok(DynValue::Long(42))
            }
        }
        let orb = Orb::new();
        orb.register("answer", Arc::new(Answer));
        let clock = MockClock::new();
        // 30% failures, 10% stalls of 5 µs simulated time.
        let transport = FaultTransport::new(
            LoopbackTransport::new(orb),
            clock.clone(),
            seed,
            300,
            100,
            5_000,
        );
        let objref = ObjRef::new("answer", transport);
        let policy = CallPolicy::with_clock(clock)
            .with_retry(RetryPolicy::new(3, 100, 1_000).with_jitter_seed(seed));
        let mut port = policy_slot(policy, objref);
        (0..100)
            .map(|_| {
                port.call(|o| o.invoke("value", vec![]).map_err(CcaError::from))
                    .is_ok()
            })
            .collect()
    };

    let first = run_scenario();
    let second = run_scenario();
    assert_eq!(
        first, second,
        "the fault schedule must be a pure function of seed {seed}"
    );
    // Three attempts against a 30% failure rate: the vast majority of
    // calls succeed for every matrix seed.
    let successes = first.iter().filter(|ok| **ok).count();
    assert!(
        successes >= 90,
        "seed {seed}: only {successes}/100 calls survived retry"
    );

    // Leave a forensic artifact for the CI fault-matrix job: the drained
    // trace of one more traced run, as JSON Lines.
    cca::obs::set_tracing(true);
    let _ = run_scenario();
    cca::obs::set_tracing(false);
    let events = cca::obs::drain();
    let jsonl = cca::obs::to_jsonl(&events);
    let dir = std::path::Path::new("target");
    if dir.is_dir() {
        let _ = std::fs::write(dir.join(format!("fault_trace_{seed}.jsonl")), jsonl);
    }
}

// ---------------------------------------------------------------------
// Property: quarantine never permanently loses the last healthy provider.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For ANY failure schedule applied to a fan-out slot — including ones
    /// that trip every breaker — once providers heal and the cooldown
    /// passes, the slot resolves again. The half-open re-arm guarantees a
    /// probe is always eventually granted; an abandoned or failed probe
    /// only delays recovery by another cooldown, never forecloses it.
    #[test]
    fn the_last_healthy_provider_is_always_recoverable(
        schedule in proptest::collection::vec((0usize..2, any::<bool>()), 0..64),
        heal_rounds in 1u32..4,
    ) {
        let provider = CcaServices::new("p");
        let flaky = [Flaky::new(0, 0), Flaky::new(1, 0)];
        for (i, f) in flaky.iter().enumerate() {
            let typed: Arc<dyn WorkPort> = f.clone();
            provider
                .add_provides_port(PortHandle::new(
                    format!("out{i}"),
                    "test.WorkPort",
                    typed,
                ))
                .unwrap();
        }
        let user = CcaServices::new("u");
        user.register_uses_port("in", "test.WorkPort", TypeMap::new()).unwrap();
        let clock = MockClock::new();
        let policy = CallPolicy::with_clock(clock.clone())
            .with_breaker(BreakerPolicy::new(2, 1_000));
        user.set_call_policy("in", Arc::new(policy)).unwrap();
        for i in 0..2 {
            user.connect_uses("in", provider.get_provides_port(&format!("out{i}")).unwrap())
                .unwrap();
        }

        // Apply the arbitrary schedule directly to the breakers.
        for (slot, fail) in &schedule {
            let breaker = user.connection_breaker("in", *slot).unwrap().unwrap();
            // Admission mirrors real callers: a denied slot records nothing.
            if breaker.admit() {
                if *fail {
                    breaker.record_failure();
                } else {
                    breaker.record_success();
                }
            }
        }

        // Providers heal; time passes. Within a bounded number of
        // cooldown periods the slot must resolve a provider again: each
        // round grants at least one half-open probe, and a successful
        // probe closes the breaker.
        let mut recovered = false;
        for _ in 0..heal_rounds.max(2) {
            clock.advance_ns(2_000);
            let mut port = user.cached_port::<dyn WorkPort>("in");
            if port.call(|p| p.work()).is_ok() {
                recovered = true;
                break;
            }
        }
        prop_assert!(recovered, "slot never recovered after healing + cooldowns");
    }
}
