//! Monitoring a live assembly through the reflective `MonitorPort` —
//! using **dynamic invocation only**, the way an external composition tool
//! or GUI builder would (§5's "discover, query, and execute methods at run
//! time").
//!
//! ```text
//! cargo run --example monitoring
//! ```
//!
//! The example wires a tiny two-component assembly, installs the
//! framework's monitor component, and from that point on touches the
//! monitor exclusively through `cca::sidl::invoke_checked` against the
//! reflection metadata compiled from `MONITOR_SIDL` — no Rust method on
//! `MonitorPort` is called directly. It turns the per-port counters on,
//! drives some port traffic, reads back the live connection graph and call
//! counts, then flips the tracer on and drains a Chrome-format trace.
//! Last come the scrape methods a remote collector would call: two
//! non-consuming `traceJsonl` scrapes, the flight-recorder inventory and
//! one `snapshotJson` of everything.

use cca::core::{CcaError, CcaServices, Component, PortHandle};
use cca::framework::{Framework, MONITOR_INSTANCE, MONITOR_PORT_TYPE, MONITOR_SIDL};
use cca::repository::Repository;
use cca::sidl::{compile, invoke_checked, DynObject, DynValue, MethodInfo, Reflection};
use std::sync::Arc;

// ---------------------------------------------------------------------
// A minimal assembly: an integrator using a force-evaluation port.
// ---------------------------------------------------------------------

trait ForcePort: Send + Sync {
    fn eval(&self, x: f64) -> f64;
}

struct Spring;
impl ForcePort for Spring {
    fn eval(&self, x: f64) -> f64 {
        -4.0 * x
    }
}

struct ForceComponent;
impl Component for ForceComponent {
    fn component_type(&self) -> &str {
        "demo.Force"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        let port: Arc<dyn ForcePort> = Arc::new(Spring);
        services.add_provides_port(PortHandle::new("force", "demo.ForcePort", port))
    }
}

struct IntegratorComponent;
impl Component for IntegratorComponent {
    fn component_type(&self) -> &str {
        "demo.Integrator"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        services.register_uses_port("force", "demo.ForcePort", cca::data::TypeMap::new())
    }
}

// ---------------------------------------------------------------------
// The composition tool's side: everything below is dynamic invocation.
// ---------------------------------------------------------------------

/// Looks a method up in the reflected interface, panicking with a helpful
/// message if the SIDL and the servant ever drift apart.
fn method<'a>(info: &'a cca::sidl::TypeInfo, name: &str) -> &'a MethodInfo {
    info.method(name)
        .unwrap_or_else(|| panic!("{MONITOR_PORT_TYPE} has no method '{name}'"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Assemble and wire the application.
    let fw = Framework::new(Repository::new());
    fw.add_instance("force0", Arc::new(ForceComponent))?;
    fw.add_instance("integrator0", Arc::new(IntegratorComponent))?;
    fw.connect("integrator0", "force", "force0", "force")?;

    // Install the monitor. From here on we pretend to be an external tool:
    // all we keep is the port's *dynamic* facade and the SIDL text.
    fw.install_monitor()?;
    let target: Arc<dyn DynObject> = fw
        .services(MONITOR_INSTANCE)?
        .get_provides_port("monitor")?
        .dynamic()
        .expect("monitor port always carries a dynamic facade")
        .clone();

    // Reflection metadata straight from the interface definition — the
    // same text the framework deposited into the repository.
    let model = compile(MONITOR_SIDL)?;
    let reflection = Reflection::from_model(&model);
    let info = reflection
        .type_info(MONITOR_PORT_TYPE)
        .expect("MONITOR_SIDL defines the monitor port type");

    // 1. Who is alive?
    let instances = invoke_checked(&*target, method(info, "instances"), vec![])?;
    println!("instances:\n  {}\n", instances.as_str()?);

    // 2. Turn the per-port counters on (a runtime flip — no restart).
    invoke_checked(
        &*target,
        method(info, "setCounters"),
        vec![DynValue::Bool(true)],
    )?;

    // 3. Drive some traffic through the assembly's uses port.
    let services = fw.services("integrator0")?;
    let mut force = services.cached_port::<dyn ForcePort>("force");
    let mut x = 1.0f64;
    let mut v = 0.0f64;
    for _ in 0..10_000 {
        let a = force.get()?.eval(x);
        v += a * 1.0e-3;
        x += v * 1.0e-3;
    }
    println!("integrated: x = {x:.6}, v = {v:.6}\n");

    // 4. Read the live connection graph and the observed call count.
    let graph = invoke_checked(&*target, method(info, "connectionGraph"), vec![])?;
    println!("connection graph:\n  {}\n", graph.as_str()?);

    let calls = invoke_checked(
        &*target,
        method(info, "callCount"),
        vec![
            DynValue::Str("integrator0".into()),
            DynValue::Str("force".into()),
        ],
    )?;
    println!("integrator0.force calls observed: {}\n", calls.as_long()?);
    assert!(calls.as_long()? >= 10_000);

    // 5. Trace a reconfiguration and render it for chrome://tracing.
    invoke_checked(
        &*target,
        method(info, "setTracing"),
        vec![DynValue::Bool(true)],
    )?;
    fw.disconnect("integrator0", "force", "force0")?;
    fw.connect("integrator0", "force", "force0", "force")?;
    invoke_checked(
        &*target,
        method(info, "setTracing"),
        vec![DynValue::Bool(false)],
    )?;
    let trace = invoke_checked(
        &*target,
        method(info, "drainTrace"),
        vec![DynValue::Str("chrome".into())],
    )?;
    let trace = trace.as_str()?;
    println!(
        "chrome trace ({} bytes): paste into chrome://tracing or ui.perfetto.dev",
        trace.len()
    );
    println!("{}\n", &trace[..trace.len().min(400)]);

    // 6. Full metrics dump, as a dashboard would poll it.
    let metrics = invoke_checked(&*target, method(info, "metricsJson"), vec![])?;
    println!("metrics:\n  {}\n", metrics.as_str()?);

    // 7. Scrape the trace ring twice: unlike drainTrace, traceJsonl leaves
    //    the events in place, so both scrapes see the same instant.
    invoke_checked(
        &*target,
        method(info, "setTracing"),
        vec![DynValue::Bool(true)],
    )?;
    cca::obs::trace_instant("scrape-window");
    let first = invoke_checked(&*target, method(info, "traceJsonl"), vec![])?;
    let second = invoke_checked(&*target, method(info, "traceJsonl"), vec![])?;
    invoke_checked(
        &*target,
        method(info, "setTracing"),
        vec![DynValue::Bool(false)],
    )?;
    for scrape in [first.as_str()?, second.as_str()?] {
        assert!(scrape.contains("\"name\":\"scrape-window\""), "{scrape}");
    }
    println!("both traceJsonl scrapes saw the scrape-window instant\n");

    // 8. The flight-recorder inventory and the one-call snapshot.
    let flight = invoke_checked(&*target, method(info, "flightJson"), vec![])?;
    println!("flight recorder:\n  {}\n", flight.as_str()?);
    assert!(flight.as_str()?.contains("\"incidents\":["));
    let snapshot = invoke_checked(&*target, method(info, "snapshotJson"), vec![])?;
    let snapshot = snapshot.as_str()?;
    let mut at = 0;
    for key in [
        "tracing",
        "counters",
        "flight",
        "metrics",
        "resilience",
        "repo",
        "fleet",
    ] {
        let found = snapshot[at..].find(&format!("\"{key}\":"));
        at += found.unwrap_or_else(|| panic!("snapshot lacks '{key}' after byte {at}"));
    }
    println!("snapshot ({} bytes) carries all seven keys", snapshot.len());
    Ok(())
}
