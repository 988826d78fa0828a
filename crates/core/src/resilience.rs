//! Fault-tolerant port invocation: call policies, retry/backoff, circuit
//! breakers.
//!
//! §6.1 already tolerates degraded assemblies structurally — a uses port
//! holds "zero or more" providers — and §4's Configuration API notifies
//! builders of component failure. This module adds the *temporal* half of
//! that story: a [`CallPolicy`] attached to a uses port at connect time
//! gives each invocation bounded retries with decorrelated-jitter backoff,
//! an end-to-end deadline, and a per-provider [`CircuitBreaker`] that
//! quarantines a provider slot after K consecutive failures. Fan-out via
//! `get_ports` transparently skips quarantined providers (an empty list
//! remains a legal outcome, per §6.1), and a quarantined provider is
//! half-opened for a single probe call after a cooldown.
//!
//! # Determinism
//!
//! Every time-dependent decision flows through an injected [`Clock`], so
//! tests drive backoff and cooldowns with a [`MockClock`] — no wall-clock
//! sleeps anywhere in the test suite — and the jitter source is a seeded
//! [`SplitMix64`], so a fault schedule is a pure function of its seed
//! (`CCA_FAULT_SEED` in the CI fault matrix).
//!
//! # Cost model
//!
//! The §6.2 direct-connect fast path must not pay for resilience it is not
//! using. A `CachedPort` with no policy is unchanged; with a policy whose
//! breaker is **closed**, admission is one relaxed load of the breaker's
//! packed state word plus a predicted branch — gated at ≤1.1× the PR-1
//! cached call by `benches/e11_resilience.rs`. All breaker *transitions*
//! ride failure paths, which are already expensive.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The SIDL exception type `cca-rpc`'s deadline-enforcing transport raises
/// when an ORB round trip exceeds its per-call budget. `CcaError`'s
/// `From<SidlError>` conversion recognizes it and produces
/// [`CcaError::DeadlineExceeded`](crate::CcaError::DeadlineExceeded), so
/// the error keeps its meaning across the RPC/port boundary.
pub const DEADLINE_EXCEPTION_TYPE: &str = "cca.rpc.DeadlineExceeded";

/// Environment variable naming the deterministic fault-schedule seed used
/// by fault-injection tests (the CI fault matrix runs seeds 1, 7, 42 and
/// 1999). See [`fault_seed_from_env`].
const FAULT_SEED_ENV: &str = "CCA_FAULT_SEED";

/// The fault-schedule seed from `CCA_FAULT_SEED`, defaulting to 1. Invalid
/// values fall back to the default rather than erroring, so a typo in a CI
/// matrix degrades to a tested configuration instead of a skipped one.
pub fn fault_seed_from_env() -> u64 {
    std::env::var(FAULT_SEED_ENV)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

/// A monotonic nanosecond clock with a cooperative sleep.
///
/// All resilience timing (backoff waits, breaker cooldowns, deadlines)
/// goes through this trait so tests substitute a [`MockClock`] and advance
/// simulated time instantly: simulation, not emulation, applied to fault
/// handling.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since an arbitrary (per-clock) epoch. Monotonic.
    fn now_ns(&self) -> u64;
    /// Blocks (or, for a mock, advances simulated time) for `ns`.
    fn sleep_ns(&self, ns: u64);
}

/// The production clock: `Instant`-anchored monotonic time, real sleeps.
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// A clock anchored at its moment of creation.
    pub fn new() -> Arc<Self> {
        Arc::new(SystemClock {
            epoch: Instant::now(),
        })
    }
}

impl Clock for SystemClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sleep_ns(&self, ns: u64) {
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

/// A deterministic test clock: time is an atomic counter, `sleep_ns`
/// advances it. Shared across every policy/breaker/transport in a test so
/// one `advance_ns` moves the whole scenario forward.
#[derive(Debug, Default)]
pub struct MockClock {
    now: AtomicU64,
}

impl MockClock {
    /// A clock starting at t = 0.
    pub fn new() -> Arc<Self> {
        Arc::new(MockClock::default())
    }

    /// Advances simulated time by `ns`.
    pub fn advance_ns(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for MockClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    fn sleep_ns(&self, ns: u64) {
        // Sleeping *is* advancing: a retry backoff under a mock clock
        // completes instantly in wall time but is fully visible to every
        // deadline/cooldown computation sharing the clock.
        self.now.fetch_add(ns, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Deterministic randomness
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny, high-quality, seedable PRNG. Used for backoff
/// jitter and fault schedules so both are pure functions of their seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value uniformly below `bound` (`bound` = 0 yields 0).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

// ---------------------------------------------------------------------------
// Retry with decorrelated-jitter backoff
// ---------------------------------------------------------------------------

/// Bounded-retry configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (values < 1 behave as 1).
    pub max_attempts: u32,
    /// Floor of every backoff wait, nanoseconds.
    pub base_backoff_ns: u64,
    /// Cap of every backoff wait, nanoseconds.
    pub max_backoff_ns: u64,
    /// Seed of the jitter PRNG — the whole backoff sequence is a pure
    /// function of this.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// A policy with `max_attempts` attempts and backoff in
    /// `[base_backoff_ns, max_backoff_ns]`, jitter seeded from the base.
    pub fn new(max_attempts: u32, base_backoff_ns: u64, max_backoff_ns: u64) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff_ns,
            max_backoff_ns,
            jitter_seed: 0x5ca1_ab1e,
        }
    }

    /// Overrides the jitter seed (deterministic tests pin this).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// A fresh backoff sequence for one logical call.
    pub fn schedule(&self) -> BackoffSchedule {
        BackoffSchedule {
            rng: SplitMix64::new(self.jitter_seed),
            base: self.base_backoff_ns.max(1),
            cap: self.max_backoff_ns.max(self.base_backoff_ns.max(1)),
            prev: self.base_backoff_ns.max(1),
        }
    }
}

/// Decorrelated-jitter backoff: each wait is drawn uniformly from
/// `[base, prev * 3]`, clamped to `[base, cap]`. Grows roughly
/// exponentially without the lock-step retry convoys plain exponential
/// backoff produces. An infinite iterator — the retry policy's attempt
/// bound is what terminates it.
#[derive(Debug, Clone)]
pub struct BackoffSchedule {
    rng: SplitMix64,
    base: u64,
    cap: u64,
    prev: u64,
}

impl Iterator for BackoffSchedule {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let upper = self.prev.saturating_mul(3).max(self.base + 1);
        let draw = self.base + self.rng.next_below(upper - self.base);
        let wait = draw.clamp(self.base, self.cap);
        self.prev = wait;
        Some(wait)
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// Circuit-breaker configuration: open after `failure_threshold`
/// consecutive failures, half-open one probe after `cooldown_ns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures that trip the breaker (values < 1 behave as 1).
    pub failure_threshold: u32,
    /// Quarantine duration before a half-open probe is allowed, ns.
    pub cooldown_ns: u64,
}

impl BreakerPolicy {
    /// A breaker tripping after `failure_threshold` consecutive failures
    /// with a `cooldown_ns` quarantine.
    pub fn new(failure_threshold: u32, cooldown_ns: u64) -> Self {
        BreakerPolicy {
            failure_threshold,
            cooldown_ns,
        }
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally; consecutive failures are counted.
    Closed,
    /// The provider is quarantined: admission is refused until the
    /// cooldown elapses.
    Open,
    /// One probe call is in flight; its outcome closes or re-opens.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name (used in JSON and trace output).
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Observer of breaker state transitions. The framework installs one per
/// connection to publish quarantine/recovery `ConfigEvent`s.
pub trait BreakerObserver: Send + Sync {
    /// Called after the breaker moved `from` → `to`.
    /// `consecutive_failures` is the failure streak at transition time.
    fn on_transition(&self, from: BreakerState, to: BreakerState, consecutive_failures: u64);
}

const KIND_MASK: u64 = 0b11;
const KIND_CLOSED: u64 = 0;
const KIND_OPEN: u64 = 1;
const KIND_HALF_OPEN: u64 = 2;

fn pack(kind: u64, stamp_ns: u64) -> u64 {
    (stamp_ns << 2) | kind
}

fn decode_kind(kind: u64) -> BreakerState {
    match kind {
        KIND_OPEN => BreakerState::Open,
        KIND_HALF_OPEN => BreakerState::HalfOpen,
        _ => BreakerState::Closed,
    }
}

/// A per-provider circuit breaker.
///
/// State lives in one packed `AtomicU64` — two low bits of state kind,
/// 62 bits of transition timestamp — so the closed-state admission check
/// ([`admit`](Self::admit)) is a single relaxed load plus a mask. All
/// transitions use CAS on the whole word: exactly one thread wins the
/// half-open probe, and lost races simply retry on a later call.
pub struct CircuitBreaker {
    word: AtomicU64,
    failures: AtomicU64,
    policy: BreakerPolicy,
    clock: Arc<dyn Clock>,
    observer: RwLock<Option<Arc<dyn BreakerObserver>>>,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(policy: BreakerPolicy, clock: Arc<dyn Clock>) -> Self {
        CircuitBreaker {
            word: AtomicU64::new(pack(KIND_CLOSED, 0)),
            failures: AtomicU64::new(0),
            policy,
            clock,
            observer: RwLock::new(None),
        }
    }

    /// Installs (replacing) the transition observer.
    pub fn set_observer(&self, observer: Arc<dyn BreakerObserver>) {
        *self.observer.write() = Some(observer);
    }

    /// The breaker's configuration.
    pub fn policy(&self) -> &BreakerPolicy {
        &self.policy
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        decode_kind(self.word.load(Ordering::Relaxed) & KIND_MASK)
    }

    /// Current consecutive-failure streak.
    pub fn consecutive_failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Whether a call may proceed. Closed: always (one relaxed load —
    /// the fast path). Open: only by transitioning to half-open once the
    /// cooldown has elapsed; the CAS winner carries the probe. Half-open:
    /// refused while a probe is outstanding; if the prober never reports
    /// an outcome, the probe re-arms after another cooldown so a healthy
    /// provider can never be lost permanently.
    #[inline]
    pub fn admit(&self) -> bool {
        let word = self.word.load(Ordering::Relaxed);
        if word & KIND_MASK == KIND_CLOSED {
            true
        } else {
            self.admit_slow(word)
        }
    }

    #[cold]
    fn admit_slow(&self, word: u64) -> bool {
        let stamp = word >> 2;
        let now = self.clock.now_ns();
        if now.saturating_sub(stamp) < self.policy.cooldown_ns {
            cca_obs::resilience().record_quarantine_rejection();
            return false;
        }
        // Cooldown elapsed: claim the (single) half-open probe.
        let next = pack(KIND_HALF_OPEN, now);
        match self
            .word
            .compare_exchange(word, next, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => {
                if word & KIND_MASK == KIND_OPEN {
                    self.notify(BreakerState::Open, BreakerState::HalfOpen);
                }
                true
            }
            Err(_) => {
                // Another thread claimed the probe (or the state moved);
                // this call is refused, the next one re-reads fresh state.
                cca_obs::resilience().record_quarantine_rejection();
                false
            }
        }
    }

    /// Reports a successful call: resets the failure streak and closes the
    /// breaker if it was probing. Steady-state cost (already closed, no
    /// streak) is two relaxed loads.
    pub fn record_success(&self) {
        if self.failures.load(Ordering::Relaxed) != 0 {
            self.failures.store(0, Ordering::Relaxed);
        }
        let word = self.word.load(Ordering::Relaxed);
        if word & KIND_MASK != KIND_CLOSED
            && self
                .word
                .compare_exchange(
                    word,
                    pack(KIND_CLOSED, 0),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
        {
            self.notify(decode_kind(word & KIND_MASK), BreakerState::Closed);
        }
    }

    /// Reports a failed call: bumps the streak and opens the breaker when
    /// the threshold is reached (or immediately on a failed probe).
    pub fn record_failure(&self) {
        let streak = self.failures.fetch_add(1, Ordering::Relaxed) + 1;
        let word = self.word.load(Ordering::Relaxed);
        let kind = word & KIND_MASK;
        let trips = match kind {
            KIND_HALF_OPEN => true,
            KIND_CLOSED => streak >= u64::from(self.policy.failure_threshold.max(1)),
            _ => false,
        };
        if trips {
            let next = pack(KIND_OPEN, self.clock.now_ns());
            if self
                .word
                .compare_exchange(word, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.notify(decode_kind(kind), BreakerState::Open);
            }
        }
    }

    fn notify(&self, from: BreakerState, to: BreakerState) {
        match to {
            BreakerState::Open => cca_obs::resilience().record_breaker_open(),
            BreakerState::HalfOpen => cca_obs::resilience().record_breaker_half_open(),
            BreakerState::Closed => cca_obs::resilience().record_breaker_close(),
        }
        cca_obs::trace_instant(match to {
            BreakerState::Open => "resilience.breaker_open",
            BreakerState::HalfOpen => "resilience.breaker_half_open",
            BreakerState::Closed => "resilience.breaker_close",
        });
        let observer = self.observer.read().clone();
        if let Some(o) = observer {
            o.on_transition(from, to, self.consecutive_failures());
        }
    }
}

impl std::fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitBreaker")
            .field("state", &self.state())
            .field("consecutive_failures", &self.consecutive_failures())
            .field("policy", &self.policy)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// CallPolicy
// ---------------------------------------------------------------------------

/// The per-uses-port invocation policy, attached at connect time.
///
/// All three facilities are optional and independent:
/// * [`RetryPolicy`] — bounded retries with decorrelated-jitter backoff;
/// * a deadline — an end-to-end budget covering every attempt and wait
///   (also plumbed into `cca-rpc`'s `DeadlineTransport` for proxied
///   connections, where it bounds each ORB round trip);
/// * [`BreakerPolicy`] — a per-provider [`CircuitBreaker`] created for
///   each connection made while the policy is attached.
#[derive(Clone)]
pub struct CallPolicy {
    retry: Option<RetryPolicy>,
    deadline_ns: Option<u64>,
    breaker: Option<BreakerPolicy>,
    clock: Arc<dyn Clock>,
}

impl CallPolicy {
    /// An empty policy on the system clock (attachments via the `with_*`
    /// builders).
    pub fn new() -> Self {
        Self::with_clock(SystemClock::new())
    }

    /// An empty policy on an explicit clock (tests pass a [`MockClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        CallPolicy {
            retry: None,
            deadline_ns: None,
            breaker: None,
            clock,
        }
    }

    /// Adds bounded retry.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Adds an end-to-end call deadline (nanoseconds).
    pub fn with_deadline_ns(mut self, deadline_ns: u64) -> Self {
        self.deadline_ns = Some(deadline_ns);
        self
    }

    /// Adds a per-provider circuit breaker.
    pub fn with_breaker(mut self, breaker: BreakerPolicy) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// The retry configuration, if any.
    pub fn retry(&self) -> Option<&RetryPolicy> {
        self.retry.as_ref()
    }

    /// The deadline in nanoseconds, if any.
    pub fn deadline_ns(&self) -> Option<u64> {
        self.deadline_ns
    }

    /// The breaker configuration, if any.
    pub fn breaker(&self) -> Option<&BreakerPolicy> {
        self.breaker.as_ref()
    }

    /// The policy's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Total attempts per logical call (≥ 1).
    pub fn max_attempts(&self) -> u32 {
        self.retry.as_ref().map_or(1, |r| r.max_attempts.max(1))
    }

    /// A fresh breaker configured by this policy, if it has breaker
    /// configuration. Called once per connection.
    pub fn new_breaker(&self) -> Option<CircuitBreaker> {
        self.breaker
            .as_ref()
            .map(|b| CircuitBreaker::new(b.clone(), Arc::clone(&self.clock)))
    }
}

impl Default for CallPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CallPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CallPolicy")
            .field("retry", &self.retry)
            .field("deadline_ns", &self.deadline_ns)
            .field("breaker", &self.breaker)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mock() -> Arc<MockClock> {
        MockClock::new()
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(SplitMix64::new(7).next_below(0), 0);
        let mut c = SplitMix64::new(7);
        for _ in 0..64 {
            assert!(c.next_below(10) < 10);
        }
    }

    #[test]
    fn backoff_stays_in_bounds_and_is_deterministic() {
        let policy = RetryPolicy::new(8, 100, 5_000).with_jitter_seed(99);
        let a: Vec<u64> = policy.schedule().take(32).collect();
        let b: Vec<u64> = policy.schedule().take(32).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for w in &a {
            assert!((100..=5_000).contains(w), "wait {w} out of bounds");
        }
        // Different seed, different schedule (overwhelmingly likely).
        let c: Vec<u64> = policy
            .clone()
            .with_jitter_seed(100)
            .schedule()
            .take(32)
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn backoff_tends_to_grow_from_base() {
        // Decorrelated jitter: the running upper bound is prev*3, so the
        // mean of later waits should exceed the first wait's bound range.
        let policy = RetryPolicy::new(8, 10, u64::MAX / 8).with_jitter_seed(1);
        let waits: Vec<u64> = policy.schedule().take(16).collect();
        assert!(waits.iter().skip(8).any(|w| *w > 30));
    }

    #[test]
    fn breaker_trips_after_k_consecutive_failures() {
        let clock = mock();
        let b = CircuitBreaker::new(BreakerPolicy::new(3, 1_000), clock.clone());
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(), "quarantined during cooldown");
        assert_eq!(b.consecutive_failures(), 3);
    }

    #[test]
    fn success_resets_the_streak() {
        let clock = mock();
        let b = CircuitBreaker::new(BreakerPolicy::new(2, 1_000), clock);
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let clock = mock();
        let b = CircuitBreaker::new(BreakerPolicy::new(1, 1_000), clock.clone());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        clock.advance_ns(999);
        assert!(!b.admit(), "cooldown not yet elapsed");
        clock.advance_ns(1);
        assert!(b.admit(), "cooldown elapsed: probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.admit(), "only one probe at a time");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.consecutive_failures(), 0);
        assert!(b.admit());
    }

    #[test]
    fn half_open_probe_reopens_on_failure() {
        let clock = mock();
        let b = CircuitBreaker::new(BreakerPolicy::new(1, 1_000), clock.clone());
        b.record_failure();
        clock.advance_ns(1_000);
        assert!(b.admit());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // The new quarantine is stamped at the failure, not the original.
        assert!(!b.admit());
        clock.advance_ns(1_000);
        assert!(b.admit());
    }

    #[test]
    fn abandoned_probe_rearms_after_cooldown() {
        // A prober that never reports an outcome must not wedge the
        // breaker in half-open forever.
        let clock = mock();
        let b = CircuitBreaker::new(BreakerPolicy::new(1, 1_000), clock.clone());
        b.record_failure();
        clock.advance_ns(1_000);
        assert!(b.admit(), "probe claimed, outcome never reported");
        assert!(!b.admit());
        clock.advance_ns(1_000);
        assert!(b.admit(), "probe re-armed after another cooldown");
    }

    #[test]
    fn observer_sees_quarantine_and_recovery() {
        struct Rec(parking_lot::Mutex<Vec<(BreakerState, BreakerState)>>);
        impl BreakerObserver for Rec {
            fn on_transition(&self, from: BreakerState, to: BreakerState, _fails: u64) {
                self.0.lock().push((from, to));
            }
        }
        let clock = mock();
        let b = CircuitBreaker::new(BreakerPolicy::new(1, 100), clock.clone());
        let rec = Arc::new(Rec(parking_lot::Mutex::new(Vec::new())));
        b.set_observer(rec.clone());
        b.record_failure();
        clock.advance_ns(100);
        assert!(b.admit());
        b.record_success();
        assert_eq!(
            rec.0.lock().as_slice(),
            [
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
    }

    #[test]
    fn fault_seed_parses_with_default() {
        // Only exercises the default path: mutating the environment is
        // racy under the parallel test harness.
        assert!(fault_seed_from_env() >= 1 || fault_seed_from_env() == 0);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
        c.sleep_ns(1); // smoke: returns promptly
    }
}
