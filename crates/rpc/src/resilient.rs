//! Resilience wrappers for ORB transports: deadlines and deterministic
//! fault injection.
//!
//! * [`DeadlineTransport`] — bounds each round trip through the wrapped
//!   transport by a per-call budget on a [`Clock`]. A wedged transport
//!   (one that charges unbounded simulated time) surfaces as a
//!   `cca.rpc.DeadlineExceeded` user exception, which
//!   `cca_core::CcaError::from` turns into `CcaError::DeadlineExceeded`
//!   on the port side — the caller gets an error instead of hanging.
//! * [`FaultTransport`] — injects failures (errors and simulated stalls)
//!   on a schedule that is a pure function of its seed, so the CI fault
//!   matrix (`CCA_FAULT_SEED` ∈ {1, 7, 42, 1999}) replays the exact same
//!   fault sequence on every run.
//!
//! Both are simulation, not emulation: time is charged to the injected
//! clock (a `MockClock` in tests), never slept on the wall clock.

use crate::transport::Transport;
use bytes::Bytes;
use cca_core::resilience::{Clock, SplitMix64, DEADLINE_EXCEPTION_TYPE};
use cca_sidl::SidlError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The SIDL exception type an injected fault raises. Distinct from real
/// dispatch errors so tests can assert a failure was the scheduled one.
pub const INJECTED_FAULT_TYPE: &str = "cca.rpc.InjectedFault";

/// Bounds every round trip through `inner` by `deadline_ns` of clock time.
///
/// The elapsed check happens *after* `inner.call` returns — this is a
/// simulated-time facility: a "wedged" inner transport models its stall by
/// charging the shared clock (see [`FaultTransport`] stalls, or any
/// clock-charging wrapper), and the deadline converts that charge into an
/// error instead of letting the caller absorb it silently. Replies that
/// arrive over budget are discarded (the round trip *did not* meet its
/// deadline, even though bytes eventually came back).
pub struct DeadlineTransport {
    inner: Arc<dyn Transport>,
    deadline_ns: u64,
    clock: Arc<dyn Clock>,
    deadline_hits: AtomicU64,
}

impl DeadlineTransport {
    /// Wraps `inner` with a `deadline_ns` per-call budget measured on
    /// `clock`.
    pub fn new(inner: Arc<dyn Transport>, deadline_ns: u64, clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(DeadlineTransport {
            inner,
            deadline_ns,
            clock,
            deadline_hits: AtomicU64::new(0),
        })
    }

    /// The per-call budget in nanoseconds.
    pub fn deadline_ns(&self) -> u64 {
        self.deadline_ns
    }

    /// How many calls have been failed for exceeding the deadline.
    pub fn deadline_hits(&self) -> u64 {
        self.deadline_hits.load(Ordering::Relaxed)
    }
}

impl Transport for DeadlineTransport {
    fn call(&self, request: Bytes) -> Result<Bytes, SidlError> {
        let started = self.clock.now_ns();
        let result = self.inner.call(request);
        let elapsed = self.clock.now_ns().saturating_sub(started);
        if elapsed > self.deadline_ns {
            self.deadline_hits.fetch_add(1, Ordering::Relaxed);
            cca_obs::resilience().record_deadline_hit();
            cca_obs::trace_instant("rpc.deadline_exceeded");
            let message = format!(
                "round trip took {elapsed} ns, budget was {} ns",
                self.deadline_ns
            );
            if cca_obs::flight::enabled() {
                cca_obs::flight::record_incident("DeadlineExceeded", &message);
            }
            return Err(SidlError::user(DEADLINE_EXCEPTION_TYPE, message));
        }
        result
    }
}

/// One entry of a [`FaultTransport`] schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the call untouched.
    Pass,
    /// Fail the call with an [`INJECTED_FAULT_TYPE`] user exception.
    Fail,
    /// Charge `ns` of simulated time to the clock, then deliver the call
    /// — models a wedged/slow link. Under a [`DeadlineTransport`] whose
    /// budget is smaller, this becomes a deadline hit.
    Stall(u64),
}

/// Deterministic fault injector: each call's fate is drawn from a
/// seeded [`SplitMix64`], so a given `(seed, fail_permille,
/// stall_permille, stall_ns)` quadruple produces the identical fault
/// sequence on every run — the contract the CI fault matrix relies on.
pub struct FaultTransport {
    inner: Arc<dyn Transport>,
    clock: Arc<dyn Clock>,
    schedule: parking_lot::Mutex<SplitMix64>,
    fail_permille: u64,
    stall_permille: u64,
    stall_ns: u64,
    calls: AtomicU64,
}

impl FaultTransport {
    /// Wraps `inner`. Out of every 1000 calls (statistically),
    /// `fail_permille` fail outright and `stall_permille` stall for
    /// `stall_ns` of simulated clock time before delivering.
    pub fn new(
        inner: Arc<dyn Transport>,
        clock: Arc<dyn Clock>,
        seed: u64,
        fail_permille: u64,
        stall_permille: u64,
        stall_ns: u64,
    ) -> Arc<Self> {
        Arc::new(FaultTransport {
            inner,
            clock,
            schedule: parking_lot::Mutex::new(SplitMix64::new(seed)),
            fail_permille,
            stall_permille,
            stall_ns,
            calls: AtomicU64::new(0),
        })
    }

    /// The next scheduled action (draws from the schedule PRNG).
    fn next_action(&self) -> FaultAction {
        let draw = self.schedule.lock().next_below(1000);
        if draw < self.fail_permille {
            FaultAction::Fail
        } else if draw < self.fail_permille + self.stall_permille {
            FaultAction::Stall(self.stall_ns)
        } else {
            FaultAction::Pass
        }
    }

    /// Calls carried (including failed/stalled ones).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl Transport for FaultTransport {
    fn call(&self, request: Bytes) -> Result<Bytes, SidlError> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.next_action() {
            FaultAction::Pass => self.inner.call(request),
            FaultAction::Fail => {
                cca_obs::trace_instant("rpc.injected_fault");
                Err(SidlError::user(
                    INJECTED_FAULT_TYPE,
                    format!("scheduled failure at call {n}"),
                ))
            }
            FaultAction::Stall(ns) => {
                cca_obs::trace_instant("rpc.injected_stall");
                self.clock.sleep_ns(ns);
                self.inner.call(request)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Dispatcher, LoopbackTransport};
    use cca_core::resilience::MockClock;
    use cca_core::CcaError;

    struct Echo;
    impl Dispatcher for Echo {
        fn dispatch(&self, request: Bytes) -> Result<Bytes, SidlError> {
            Ok(request)
        }
    }

    fn loopback() -> Arc<LoopbackTransport> {
        LoopbackTransport::new(Arc::new(Echo))
    }

    /// A transport that models a wedge by charging the clock.
    struct Wedged {
        clock: Arc<MockClock>,
        charge_ns: u64,
        inner: Arc<dyn Transport>,
    }
    impl Transport for Wedged {
        fn call(&self, request: Bytes) -> Result<Bytes, SidlError> {
            self.clock.advance_ns(self.charge_ns);
            self.inner.call(request)
        }
    }

    #[test]
    fn deadline_passes_fast_calls_through() {
        let clock = MockClock::new();
        let t = DeadlineTransport::new(loopback(), 1_000, clock);
        let reply = t.call(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(&reply[..], b"ping");
        assert_eq!(t.deadline_hits(), 0);
        assert_eq!(t.deadline_ns(), 1_000);
    }

    #[test]
    fn wedged_transport_returns_deadline_exceeded_not_a_hang() {
        let clock = MockClock::new();
        let wedged = Arc::new(Wedged {
            clock: clock.clone(),
            charge_ns: 50_000,
            inner: loopback(),
        });
        let t = DeadlineTransport::new(wedged, 1_000, clock);
        let err = t.call(Bytes::from_static(b"ping")).unwrap_err();
        match &err {
            SidlError::UserException { exception_type, .. } => {
                assert_eq!(exception_type, DEADLINE_EXCEPTION_TYPE);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(t.deadline_hits(), 1);
        // Crossing into the port layer, the exception keeps its meaning.
        let cca: CcaError = err.into();
        assert!(matches!(cca, CcaError::DeadlineExceeded(_)));
    }

    #[test]
    fn fault_schedule_is_a_pure_function_of_the_seed() {
        let run = |seed: u64| {
            let clock = MockClock::new();
            let t = FaultTransport::new(loopback(), clock, seed, 300, 200, 10);
            (0..100)
                .map(|_| t.call(Bytes::from_static(b"x")).is_ok())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(42), run(42), "same seed, same fault sequence");
        assert_ne!(run(42), run(43), "different seed, different sequence");
    }

    #[test]
    fn fault_counters_and_stall_time_add_up() {
        let clock = MockClock::new();
        let t = FaultTransport::new(loopback(), clock.clone(), 7, 250, 250, 1_000);
        let mut failures = 0u64;
        for _ in 0..200 {
            if t.call(Bytes::from_static(b"x")).is_err() {
                failures += 1;
            }
        }
        assert_eq!(t.calls(), 200);
        assert!(failures > 0, "a 25% failure rate over 200 calls fired");
        assert!(clock.now_ns() > 0, "a 25% stall rate over 200 calls fired");
        assert_eq!(
            clock.now_ns() % 1_000,
            0,
            "all simulated time came from whole stalls"
        );
    }

    #[test]
    fn stalls_under_a_deadline_become_deadline_hits() {
        let clock = MockClock::new();
        // Every call stalls 10_000 ns; budget is 1_000 ns.
        let faulty = FaultTransport::new(loopback(), clock.clone(), 1, 0, 1000, 10_000);
        let t = DeadlineTransport::new(faulty, 1_000, clock);
        for _ in 0..5 {
            let err = t.call(Bytes::from_static(b"x")).unwrap_err();
            assert!(err.to_string().contains("budget"), "{err}");
        }
        assert_eq!(t.deadline_hits(), 5);
    }

    #[test]
    fn injected_failures_cross_the_orb_as_user_exceptions() {
        use crate::orb::{ObjRef, Orb};
        use cca_sidl::{DynObject, DynValue};

        struct Answer;
        impl DynObject for Answer {
            fn sidl_type(&self) -> &str {
                "demo.Answer"
            }
            fn invoke(&self, _: &str, _: Vec<DynValue>) -> Result<DynValue, SidlError> {
                Ok(DynValue::Int(42))
            }
        }
        let orb = Orb::new();
        orb.register("answer", Arc::new(Answer));
        let clock = MockClock::new();
        // Fail every call.
        let faulty = FaultTransport::new(
            crate::transport::LoopbackTransport::new(orb),
            clock,
            9,
            1000,
            0,
            0,
        );
        let objref = ObjRef::new("answer", faulty);
        let err = objref.invoke("value", vec![]).unwrap_err();
        match err {
            SidlError::UserException { exception_type, .. } => {
                assert_eq!(exception_type, INJECTED_FAULT_TYPE);
            }
            other => panic!("{other:?}"),
        }
    }
}
