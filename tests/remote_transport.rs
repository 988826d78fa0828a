//! Remote components over TCP, end to end, on the one socket transport
//! (`MuxServer`/`MuxTransport`): the Figure-2 pipeline with its provider
//! on the far side of a real socket, a hostile-network battery (mid-call
//! hangups, quarantine, half-open recovery — no wall-clock sleeps for any
//! breaker timing), a 16-thread stress run through one transport's four
//! connections, out-of-order completions through one socket, a killed
//! connection fanning its error to every in-flight call, and the
//! seed-deterministic remote fault matrix the CI `fault-matrix` job
//! replays across seeds {1, 7, 42, 1999}.

use cca::core::event::RecordingListener;
use cca::core::resilience::{
    fault_seed_from_env, BreakerPolicy, CallPolicy, MockClock, RetryPolicy, SplitMix64,
};
use cca::core::{CcaError, CcaServices, Component, ConfigEvent, GoPort, PortHandle};
use cca::framework::Framework;
use cca::repository::Repository;
use cca::rpc::transport::Dispatcher;
use cca::rpc::{MuxServer, MuxTransport, ObjRef, Orb, CONNECTION_EXCEPTION_TYPE};
use cca::sidl::{DynObject, DynValue, SidlError};
use cca_data::TypeMap;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

/// A servant that echoes `2 * x` — arg-dependent replies make crossed or
/// duplicated responses visible as value mismatches, not just id checks.
struct Doubler {
    calls: AtomicU64,
}

impl DynObject for Doubler {
    fn sidl_type(&self) -> &str {
        "test.Doubler"
    }
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "double" => Ok(DynValue::Long(2 * args[0].as_long()?)),
            "count" => Ok(DynValue::Long(
                self.calls.fetch_add(1, Ordering::SeqCst) as i64
            )),
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}

/// A provider component exposing the Doubler with the dynamic facade that
/// `export_port` requires.
struct DoublerProvider;
impl Component for DoublerProvider {
    fn component_type(&self) -> &str {
        "test.DoublerProvider"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        let dynamic: Arc<dyn DynObject> = Arc::new(Doubler {
            calls: AtomicU64::new(0),
        });
        services.add_provides_port(
            PortHandle::new("out", "test.Doubler", Arc::clone(&dynamic)).with_dynamic(dynamic),
        )
    }
}

/// A consumer with one uses slot; calls go through the dynamic facade
/// because typed ports cannot cross the wire.
struct RemoteConsumer;
impl Component for RemoteConsumer {
    fn component_type(&self) -> &str {
        "test.RemoteConsumer"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        services.register_uses_port("in", "test.Doubler", TypeMap::new())
    }
}

/// Server-side framework hosting one exported Doubler, already on the
/// network. Returns (framework, server, addr, remote key).
fn serve_doubler() -> (Arc<Framework>, Arc<MuxServer>, String, String) {
    let fw = Framework::new(Repository::new());
    fw.add_instance("provider0", Arc::new(DoublerProvider))
        .unwrap();
    let key = fw.export_port("provider0", "out").unwrap();
    let server = fw.serve_tcp_mux("127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    (fw, server, addr, key)
}

// ---------------------------------------------------------------------
// Figure 2 over TCP: the acceptance pipeline, provider remote.
// ---------------------------------------------------------------------

struct RampSource {
    state: Mutex<f64>,
}
impl DynObject for RampSource {
    fn sidl_type(&self) -> &str {
        "pipes.Source"
    }
    fn invoke(&self, method: &str, _args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "next" => {
                let mut s = self.state.lock();
                *s += 1.0;
                Ok(DynValue::Double(*s))
            }
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}
impl Component for RampSource {
    fn component_type(&self) -> &str {
        "pipes.RampSource"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        let dynamic: Arc<dyn DynObject> = Arc::new(RampSource {
            state: Mutex::new(0.0),
        });
        services.add_provides_port(
            PortHandle::new("out", "pipes.Source", Arc::clone(&dynamic)).with_dynamic(dynamic),
        )
    }
}

struct SummingSink {
    total: Mutex<f64>,
}
impl DynObject for SummingSink {
    fn sidl_type(&self) -> &str {
        "pipes.Sink"
    }
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "push" => {
                let mut t = self.total.lock();
                *t += args[0].as_double()?;
                Ok(DynValue::Double(*t))
            }
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}
impl Component for SummingSink {
    fn component_type(&self) -> &str {
        "pipes.SummingSink"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        let dynamic: Arc<dyn DynObject> = Arc::new(SummingSink {
            total: Mutex::new(0.0),
        });
        services.add_provides_port(
            PortHandle::new("in", "pipes.Sink", Arc::clone(&dynamic)).with_dynamic(dynamic),
        )
    }
}

/// The Figure-2 driver, dynamic-facade flavour: same pump loop, but each
/// step is a marshaled invocation because the peers are remote.
struct Pump {
    n: usize,
    services: Mutex<Option<Arc<CcaServices>>>,
    last_total: Mutex<f64>,
}
impl Component for Pump {
    fn component_type(&self) -> &str {
        "pipes.Pump"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        services.register_uses_port("from", "pipes.Source", TypeMap::new())?;
        services.register_uses_port("to", "pipes.Sink", TypeMap::new())?;
        *self.services.lock() = Some(services);
        Ok(())
    }
}
impl GoPort for Pump {
    fn go(&self) -> Result<(), CcaError> {
        let services = self.services.lock().clone().expect("wired");
        let from = services.get_port("from")?;
        let source = from
            .dynamic()
            .expect("remote handles carry a dynamic facade");
        let to = services.get_port("to")?;
        let sink = to.dynamic().expect("remote handles carry a dynamic facade");
        let mut total = 0.0;
        for _ in 0..self.n {
            let v = source.invoke("next", vec![])?.as_double()?;
            total = sink
                .invoke("push", vec![DynValue::Double(v)])?
                .as_double()?;
        }
        *self.last_total.lock() = total;
        Ok(())
    }
}

/// The Figure-2 pipeline with source and sink living in a *different*
/// framework reached over real sockets. The pump and the assertion are
/// unchanged from `tests/figure2_pipeline.rs`; only the connect calls
/// differ (`connect_remote` instead of `connect`) — the Dispatcher seam
/// means nothing above the transport can tell.
#[test]
fn figure2_pipeline_runs_over_tcp() {
    // Server side: a framework hosting the two providers, on the network.
    let server_fw = Framework::new(Repository::new());
    server_fw
        .add_instance(
            "source0",
            Arc::new(RampSource {
                state: Mutex::new(0.0),
            }),
        )
        .unwrap();
    server_fw
        .add_instance(
            "sink0",
            Arc::new(SummingSink {
                total: Mutex::new(0.0),
            }),
        )
        .unwrap();
    let source_key = server_fw.export_port("source0", "out").unwrap();
    let sink_key = server_fw.export_port("sink0", "in").unwrap();
    let server = server_fw.serve_tcp_mux("127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    // Client side: the pump, wired to the remote ports.
    let client_fw = Framework::new(Repository::new());
    let pump = Arc::new(Pump {
        n: 10,
        services: Mutex::new(None),
        last_total: Mutex::new(0.0),
    });
    client_fw.add_instance("pump0", pump.clone()).unwrap();
    let go: Arc<dyn GoPort> = pump.clone();
    client_fw
        .services("pump0")
        .unwrap()
        .add_provides_port(PortHandle::new(
            "go",
            cca::core::component::GO_PORT_TYPE,
            go,
        ))
        .unwrap();

    client_fw
        .connect_remote("pump0", "from", &addr, &source_key)
        .unwrap();
    client_fw
        .connect_remote("pump0", "to", &addr, &sink_key)
        .unwrap();
    client_fw.run_go("pump0", "go").unwrap();

    // 1+2+...+10 = 55, computed across 20 real round trips. Shut down
    // first: that joins the event loop, so the dispatch counter is final
    // when read.
    assert_eq!(*pump.last_total.lock(), 55.0);
    server.shutdown();
    assert_eq!(server.dispatched(), 20);
}

// ---------------------------------------------------------------------
// Hostile network: hangups → typed errors → quarantine → half-open heal.
// ---------------------------------------------------------------------

/// The server drops the socket mid-call: the client observes a typed
/// `ConnectionFailure` (never a hang), the breaker quarantines the
/// provider under its `tcp+mux://` label, fail-fast calls never touch the
/// network, and the half-open probe re-dials and recovers — all breaker
/// timing on the mock clock.
#[test]
fn mid_call_hangups_quarantine_the_mux_provider_until_the_probe_heals() {
    let (_server_fw, server, addr, key) = serve_doubler();
    let seed = fault_seed_from_env();

    let client_fw = Framework::new(Repository::new());
    let rec = RecordingListener::new();
    client_fw.add_listener(rec.clone());
    client_fw
        .add_instance("u0", Arc::new(RemoteConsumer))
        .unwrap();
    let services = client_fw.services("u0").unwrap();

    let clock = MockClock::new();
    let policy = CallPolicy::with_clock(clock.clone()).with_breaker(BreakerPolicy::new(2, 10_000));
    services.set_call_policy("in", Arc::new(policy)).unwrap();
    client_fw.connect_remote("u0", "in", &addr, &key).unwrap();

    let provider_label = format!("tcp+mux://{addr}/{key}");
    assert!(
        rec.events().iter().any(|e| matches!(
            e,
            ConfigEvent::Connected { provider, .. } if *provider == provider_label
        )),
        "mux connection published with its tcp+mux:// provider label"
    );

    let mut port = services.cached_port::<dyn DynObject>("in");
    fn call(p: &(dyn DynObject + 'static)) -> Result<DynValue, CcaError> {
        p.invoke("double", vec![DynValue::Long(21)])
            .map_err(CcaError::from)
    }

    assert!(matches!(port.call(call).unwrap(), DynValue::Long(42)));

    // Hostile phase: the event loop hangs up on every decoded request.
    server.set_fault_plan(seed, 1000);
    for _ in 0..2 {
        let err = port.call(call).unwrap_err();
        assert!(
            err.to_string().contains(CONNECTION_EXCEPTION_TYPE),
            "mid-call hangup must surface as a connection failure, got: {err}"
        );
    }
    assert_eq!(server.dropped_mid_call(), 2);

    assert!(rec.events().iter().any(|e| matches!(
        e,
        ConfigEvent::ProviderQuarantined { provider, .. } if *provider == provider_label
    )));
    let breaker = services.connection_breaker("in", 0).unwrap().unwrap();
    assert!(
        !breaker.admit(),
        "open breaker denies admission in cooldown"
    );

    // Fail-fast while quarantined: no new fault draws consumed.
    let dropped_before = server.dropped_mid_call();
    assert!(port.call(call).is_err());
    assert_eq!(
        server.dropped_mid_call(),
        dropped_before,
        "quarantined calls must not reach the server"
    );

    // Heal + cooldown in simulated time: the half-open probe re-dials a
    // fresh mux connection (the dead one was torn down) and recovers.
    server.set_fault_plan(seed, 0);
    clock.advance_ns(20_000);
    let accepted_before = server.connections_accepted();
    assert!(matches!(port.call(call).unwrap(), DynValue::Long(42)));
    assert!(
        server.connections_accepted() > accepted_before,
        "recovery must re-dial: the errored mux connection was torn down"
    );
    assert!(rec.events().iter().any(|e| matches!(
        e,
        ConfigEvent::ProviderRecovered { provider, .. } if *provider == provider_label
    )));
    server.shutdown();
}

// ---------------------------------------------------------------------
// Concurrency: 16 threads through one transport's four connections.
// ---------------------------------------------------------------------

/// 16 client threads share one `MuxTransport` (the default 4 connections)
/// into one server, so all four sockets carry pipelined calls at once.
/// Replies are arg-dependent, so a lost, duplicated, or crossed request id
/// shows up as a wrong value or a typed error.
#[test]
fn sixteen_threads_share_four_mux_connections_without_crossing_replies() {
    const THREADS: u64 = 16;
    const CALLS_PER_THREAD: u64 = 200;

    let orb = Orb::new();
    orb.register(
        "doubler",
        Arc::new(Doubler {
            calls: AtomicU64::new(0),
        }),
    );
    let server = MuxServer::bind("127.0.0.1:0", orb as Arc<dyn Dispatcher>).unwrap();
    let transport = Arc::new(MuxTransport::new(server.local_addr().to_string()));
    assert_eq!(transport.connections(), 4);
    let objref = ObjRef::new(
        "doubler",
        Arc::clone(&transport) as Arc<dyn cca::rpc::Transport>,
    );

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let objref = Arc::clone(&objref);
            std::thread::spawn(move || {
                for k in 0..CALLS_PER_THREAD {
                    // Unique argument per (thread, call): a reply delivered
                    // to the wrong caller cannot produce the right value.
                    let x = (t * 1_000_000 + k) as i64;
                    let reply = objref.invoke("double", vec![DynValue::Long(x)]).unwrap();
                    assert!(matches!(reply, DynValue::Long(v) if v == 2 * x));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    assert!(transport.live_connections() <= 4);
    assert!(
        transport.metrics().dials() <= 4,
        "healthy traffic must reuse the mux connections, dials = {}",
        transport.metrics().dials()
    );
    assert_eq!(transport.mux_metrics().protocol_violations(), 0);

    // Clean shutdown joins every server thread; a second is a no-op.
    assert!(server.shutdown() > 0);
    assert_eq!(server.shutdown(), 0);

    // With the event loop joined the dispatch counter is final: the server
    // replied exactly once per call — nothing lost, nothing duplicated.
    assert_eq!(server.dispatched(), THREADS * CALLS_PER_THREAD);
}

// ---------------------------------------------------------------------
// Multiplexing: replies routed by id, connection death fanned out.
// ---------------------------------------------------------------------

/// A servant whose reply time depends on its argument: early requests
/// finish *last*, so replies come back out of submission order and only
/// id-routing (not FIFO order) can deliver them correctly.
struct StaggeredDoubler;
impl DynObject for StaggeredDoubler {
    fn sidl_type(&self) -> &str {
        "test.Doubler"
    }
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "double" => {
                let x = args[0].as_long()?;
                // x = 0 sleeps longest; x = 7 replies almost immediately.
                std::thread::sleep(Duration::from_millis(5 * (8 - (x % 8)) as u64));
                Ok(DynValue::Long(2 * x))
            }
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}

/// Out-of-order completion: 8 threads issue staggered calls through ONE
/// mux connection. The server dispatches them in parallel, so replies
/// arrive in roughly *reverse* submission order — and every caller still
/// gets its own answer, pipelined on a single socket.
#[test]
fn out_of_order_completions_route_to_their_own_callers_over_one_socket() {
    const THREADS: i64 = 8;
    const ROUNDS: i64 = 5;

    let orb = Orb::new();
    orb.register("doubler", Arc::new(StaggeredDoubler));
    let server = MuxServer::bind("127.0.0.1:0", orb as Arc<dyn Dispatcher>).unwrap();
    let transport =
        Arc::new(MuxTransport::new(server.local_addr().to_string()).with_connections(1));
    let objref = ObjRef::new(
        "doubler",
        Arc::clone(&transport) as Arc<dyn cca::rpc::Transport>,
    );

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let objref = Arc::clone(&objref);
            std::thread::spawn(move || {
                for k in 0..ROUNDS {
                    // Unique argument per (thread, round): a reply routed to
                    // the wrong waiter cannot produce the right value.
                    let x = t + THREADS * k;
                    let reply = objref.invoke("double", vec![DynValue::Long(x)]).unwrap();
                    assert!(matches!(reply, DynValue::Long(v) if v == 2 * x));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // One socket carried all of it, concurrently.
    assert_eq!(server.connections_accepted(), 1, "single mux connection");
    assert_eq!(transport.metrics().dials(), 1);
    assert!(
        transport.mux_metrics().peak_in_flight() >= 2,
        "staggered calls overlapped in flight (peak = {})",
        transport.mux_metrics().peak_in_flight()
    );
    assert_eq!(transport.mux_metrics().protocol_violations(), 0);
    server.shutdown();
    assert_eq!(server.dispatched(), (THREADS * ROUNDS) as u64);
}

/// A killed mux connection fails *every* call in flight on it with the
/// typed `ConnectionFailure` — the error the breaker counts. Five calls
/// are parked server-side (staggered sleeps), then a sixth request trips
/// the armed fault plan and the event loop hangs up the connection.
#[test]
fn killed_mux_connection_fails_all_in_flight_calls_with_typed_errors() {
    let orb = Orb::new();
    orb.register("doubler", Arc::new(StaggeredDoubler));
    let server = MuxServer::bind("127.0.0.1:0", orb as Arc<dyn Dispatcher>).unwrap();
    let transport =
        Arc::new(MuxTransport::new(server.local_addr().to_string()).with_connections(1));

    // Five slow calls in flight (x = 0 sleeps 40 ms server-side).
    let request = |request_id: u64, x: i64| {
        cca::rpc::encode_request(&cca::rpc::Request {
            request_id,
            object_key: "doubler".into(),
            operation: "double".into(),
            args: vec![DynValue::Long(x)],
        })
        .unwrap()
    };
    let in_flight: Vec<_> = (0..5)
        .map(|i| transport.submit(request(i, 0)).unwrap())
        .collect();

    // The sixth request consumes the armed fault draw: hangup mid-call.
    server.set_fault_plan(1, 1000);
    let trigger = transport.submit(request(6, 7));

    // Every one of the six surfaces the typed connection failure; none
    // hang waiting for replies that will never come.
    let mut failures = 0;
    for pending in in_flight {
        match pending.wait() {
            Err(SidlError::UserException { exception_type, .. }) => {
                assert_eq!(exception_type, CONNECTION_EXCEPTION_TYPE);
                failures += 1;
            }
            Err(other) => panic!("expected a connection failure, got {other:?}"),
            Ok(_) => panic!("no reply can precede the hangup"),
        }
    }
    assert_eq!(failures, 5, "the fan-out reached every in-flight call");
    match trigger {
        Ok(pending) => match pending.wait() {
            Err(SidlError::UserException { exception_type, .. }) => {
                assert_eq!(exception_type, CONNECTION_EXCEPTION_TYPE)
            }
            other => panic!("expected a connection failure, got {other:?}"),
        },
        // The teardown may win the race against the submit itself.
        Err(SidlError::UserException { exception_type, .. }) => {
            assert_eq!(exception_type, CONNECTION_EXCEPTION_TYPE)
        }
        Err(other) => panic!("expected a connection failure, got {other:?}"),
    }
    assert_eq!(server.dropped_mid_call(), 1);
    server.shutdown();
}

// ---------------------------------------------------------------------
// The CI fault matrix, remote edition.
// ---------------------------------------------------------------------

/// The remote fault scenario is a pure function of `CCA_FAULT_SEED`: a
/// server dropping ~30% of requests mid-call, a client retrying through a
/// seeded policy on a mock clock. With one connection and a serialized
/// caller, the event loop consumes fault draws in request order, so two
/// fresh runs must produce identical per-call outcome vectors.
#[test]
fn mux_fault_scenario_is_deterministic_per_seed() {
    let seed = fault_seed_from_env();

    let run_scenario = || -> Vec<bool> {
        let orb = Orb::new();
        orb.register(
            "doubler",
            Arc::new(Doubler {
                calls: AtomicU64::new(0),
            }),
        );
        let server = MuxServer::bind("127.0.0.1:0", orb as Arc<dyn Dispatcher>).unwrap();
        server.set_fault_plan(seed, 300);
        let transport =
            Arc::new(MuxTransport::new(server.local_addr().to_string()).with_connections(1));
        let objref = ObjRef::new("doubler", transport as Arc<dyn cca::rpc::Transport>);
        let clock = MockClock::new();
        let policy = CallPolicy::with_clock(clock)
            .with_retry(RetryPolicy::new(3, 100, 1_000).with_jitter_seed(seed));
        // The retry loop is the uses slot's, as in production.
        let user = CcaServices::new("user");
        user.register_uses_port("in", "test.Doubler", TypeMap::new())
            .unwrap();
        user.set_call_policy("in", Arc::new(policy)).unwrap();
        user.connect_uses("in", PortHandle::new("out", "test.Doubler", objref))
            .unwrap();
        let mut port = user.cached_port::<ObjRef>("in");
        let outcomes: Vec<bool> = (0..60)
            .map(|i| {
                port.call(|o| {
                    o.invoke("double", vec![DynValue::Long(i)])
                        .map_err(CcaError::from)
                })
                .is_ok()
            })
            .collect();
        server.shutdown();
        outcomes
    };

    let first = run_scenario();
    let second = run_scenario();
    assert_eq!(
        first, second,
        "the mux fault schedule must be a pure function of seed {seed}"
    );
    // Three attempts against a 30% drop rate: the vast majority of calls
    // survive retry for every matrix seed.
    let successes = first.iter().filter(|ok| **ok).count();
    assert!(
        successes >= 48,
        "seed {seed}: only {successes}/60 calls survived retry"
    );
}

// ---------------------------------------------------------------------
// Robustness: garbage on the wire never takes the server down.
// ---------------------------------------------------------------------

/// Garbage and oversized frames against the event-driven server: the
/// offending connection is closed from the header alone (framing has no
/// resync point), and a well-formed client on another connection never
/// notices.
#[test]
fn garbage_and_oversized_frames_only_kill_their_own_mux_connection() {
    let orb = Orb::new();
    orb.register(
        "doubler",
        Arc::new(Doubler {
            calls: AtomicU64::new(0),
        }),
    );
    let server = MuxServer::bind("127.0.0.1:0", orb as Arc<dyn Dispatcher>).unwrap();
    let addr = server.local_addr();

    let mut garbage = TcpStream::connect(addr).unwrap();
    garbage
        .write_all(b"GET /frames HTTP/1.1\r\nHost: nope\r\n\r\n")
        .unwrap();
    let mut buf = [0u8; 64];
    assert_eq!(garbage.read(&mut buf).unwrap(), 0, "bad magic => hangup");

    let mut oversized = TcpStream::connect(addr).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(b"CCAR"); // magic
    header.push(1); // version
    header.push(0); // kind = Request
    header.extend_from_slice(&[0, 0]); // reserved
    header.extend_from_slice(&7u64.to_le_bytes()); // request id
    header.extend_from_slice(&u32::MAX.to_le_bytes()); // 4 GiB payload
    oversized.write_all(&header).unwrap();
    assert_eq!(oversized.read(&mut buf).unwrap(), 0, "oversized => hangup");

    // Meanwhile a well-formed mux client is unaffected.
    let transport = Arc::new(MuxTransport::new(addr.to_string()));
    let objref = ObjRef::new("doubler", transport as Arc<dyn cca::rpc::Transport>);
    let reply = objref.invoke("double", vec![DynValue::Long(5)]).unwrap();
    assert!(matches!(reply, DynValue::Long(10)));
    server.shutdown();
    assert_eq!(server.dispatched(), 1);
}

/// The event loop parks in `poll` with no timeout, so a wake-up lost to
/// the race between "nothing to do" and "blocked" would show up here as a
/// call that never completes. Eight callers with seeded 0–300 µs gaps keep
/// the loop going in and out of its park, with requests, completions and
/// parks interleaving every way the scheduler offers; then a dial and a
/// `shutdown()` each arrive at a loop known to be parked.
#[test]
fn no_wake_up_is_lost_between_the_event_loop_and_its_park() {
    /// Waits for the loop to go quiet; parked is the only way it can.
    fn wait_parked(server: &MuxServer) {
        loop {
            let before = server.metrics().loop_passes();
            std::thread::sleep(Duration::from_millis(20));
            if server.metrics().loop_passes() == before {
                return;
            }
        }
    }
    const THREADS: u64 = 8;
    const CALLS: u64 = 2_000;
    let seed = fault_seed_from_env();

    let orb = Orb::new();
    orb.register(
        "doubler",
        Arc::new(Doubler {
            calls: AtomicU64::new(0),
        }),
    );
    let server = MuxServer::bind("127.0.0.1:0", orb as Arc<dyn Dispatcher>).unwrap();
    let doubler = |transport: MuxTransport| {
        ObjRef::new(
            "doubler",
            Arc::new(transport) as Arc<dyn cca::rpc::Transport>,
        )
    };
    let addr = server.local_addr().to_string();
    let objref = doubler(MuxTransport::new(&addr).with_io_timeout(Duration::from_secs(2)));
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let objref = &objref;
            scope.spawn(move || {
                let mut gaps = SplitMix64::new(seed ^ (thread << 32));
                for call in 0..CALLS {
                    let x = (thread * CALLS + call) as i64;
                    let reply = objref
                        .invoke("double", vec![DynValue::Long(x)])
                        .unwrap_or_else(|e| panic!("thread {thread} call {call}: {e}"));
                    assert!(matches!(reply, DynValue::Long(y) if y == 2 * x));
                    std::thread::sleep(Duration::from_micros(gaps.next_below(300)));
                }
            });
        }
    });
    assert_eq!(server.dispatched(), THREADS * CALLS);

    wait_parked(&server);
    let began = Instant::now();
    let late = doubler(MuxTransport::new(&addr));
    let reply = late.invoke("double", vec![DynValue::Long(21)]).unwrap();
    assert!(matches!(reply, DynValue::Long(42)));
    assert!(
        began.elapsed() < Duration::from_secs(1),
        "accept while parked"
    );

    wait_parked(&server);
    let began = Instant::now();
    assert!(server.shutdown() > 0);
    assert!(
        began.elapsed() < Duration::from_secs(1),
        "shutdown while parked"
    );
}
