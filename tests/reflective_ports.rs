//! Pins what the five reflective ports answer through `DynObject::invoke`:
//! the `esi` operator, preconditioner and solver ports the solver
//! components provide, and the framework's monitor and discovery ports
//! (the monitor's scrape methods in a test of their own).
//!
//! Each test runs a fixed call list: every method with valid arguments,
//! each argument-taking method with none, one wrong-typed argument and one
//! unknown method. Deterministic results are pinned exactly (the `esi`
//! arrays bit for bit). Process-global scrapes are pinned by their
//! `DynValue` variant and top-level JSON keys. Errors are pinned by their
//! `SidlError` variant, never by their wording.

use cca::core::{CcaError, CcaServices, Component, PortHandle};
use cca::data::{NdArray, TypeMap};
use cca::framework::Framework;
use cca::repository::{ComponentEntry, PortSpec, Repository};
use cca::sidl::{DynObject, DynValue, SidlError};
use cca::solvers::esi::{
    expose_precond_ports, expose_solver_ports, MatrixComponent, PrecondComponent, PrecondKind,
    SolverComponent, SolverConfig, ESI_SIDL,
};
use cca::solvers::{cg, CsrMatrix, Jacobi, KrylovKind, Preconditioner, SerialReduce};
use std::sync::Arc;

// ---- helpers ---------------------------------------------------------------

fn dynamic(fw: &Framework, instance: &str, port: &str) -> Arc<dyn DynObject> {
    let handle = fw
        .services(instance)
        .unwrap()
        .get_provides_port(port)
        .unwrap();
    Arc::clone(
        handle
            .dynamic()
            .expect("reflective port has a dynamic facade"),
    )
}

fn call(target: &dyn DynObject, method: &str, args: Vec<DynValue>) -> DynValue {
    target
        .invoke(method, args)
        .unwrap_or_else(|e| panic!("{method}: {e}"))
}

fn refused(target: &dyn DynObject, method: &str, args: Vec<DynValue>) -> SidlError {
    match target.invoke(method, args) {
        Ok(v) => panic!("{method} answered {v:?}, expected an error"),
        Err(e) => e,
    }
}

/// The call is refused as a dynamic-invocation failure.
fn assert_invoke_error(target: &dyn DynObject, method: &str, args: Vec<DynValue>) {
    let e = refused(target, method, args);
    assert!(
        matches!(e, SidlError::Invoke { .. }),
        "{method}: expected SidlError::Invoke, got {e:?}"
    );
}

fn string(v: DynValue) -> String {
    match v {
        DynValue::Str(s) => s,
        other => panic!("expected DynValue::Str, got {other:?}"),
    }
}

fn array(v: DynValue) -> NdArray<f64> {
    match v {
        DynValue::DoubleArray(a) => a,
        other => panic!("expected DynValue::DoubleArray, got {other:?}"),
    }
}

fn arg_array(xs: &[f64]) -> DynValue {
    DynValue::DoubleArray(NdArray::from_vec(&[xs.len()], xs.to_vec()).unwrap())
}

fn assert_bits_equal(got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "element {i}: {g} vs {w}");
    }
}

/// FNV-1a over the elements' bit patterns: one number that changes if
/// any bit of any element does.
fn digest(xs: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The keys of a JSON object's top level, in document order.
fn top_level_keys(json: &str) -> Vec<String> {
    let bytes = json.as_bytes();
    assert_eq!(bytes.first(), Some(&b'{'), "not an object: {json}");
    let mut keys = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    let mut expect_key = false;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => {
                depth += 1;
                expect_key = depth == 1;
            }
            b'}' | b']' => depth -= 1,
            b',' if depth == 1 => expect_key = true,
            b'"' => {
                let start = i + 1;
                i += 1;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                if depth == 1 && expect_key {
                    keys.push(json[start..i].to_string());
                    expect_key = false;
                }
            }
            _ => {}
        }
        i += 1;
    }
    keys
}

fn keys(v: DynValue) -> Vec<String> {
    top_level_keys(&string(v))
}

// ---- the esi ports ----------------------------------------------------------

const NX: usize = 8;
const TOL: f64 = 1e-8;
const MAX_ITER: usize = 1000;

fn matrix() -> CsrMatrix {
    CsrMatrix::laplacian_2d(NX, NX)
}

fn input(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 13) % 7) as f64 - 2.5).collect()
}

/// matrix0 ("A") + precond0 ("M", Jacobi) + solver0 ("solver"), wired as
/// Figure 1 draws them.
fn esi_assembly(cfg: SolverConfig) -> Arc<Framework> {
    let repo = Repository::new();
    repo.deposit_sidl(ESI_SIDL).unwrap();
    let fw = Framework::new(repo);
    let precond = PrecondComponent::new(PrecondKind::Jacobi);
    let solver = SolverComponent::new(cfg);
    fw.add_instance("matrix0", MatrixComponent::new(matrix()))
        .unwrap();
    fw.add_instance("precond0", precond.clone()).unwrap();
    fw.add_instance("solver0", solver.clone()).unwrap();
    expose_precond_ports(&precond).unwrap();
    expose_solver_ports(&solver).unwrap();
    fw.connect("precond0", "A", "matrix0", "A").unwrap();
    fw.connect("solver0", "A", "matrix0", "A").unwrap();
    fw.connect("solver0", "M", "precond0", "M").unwrap();
    fw
}

fn cg_config(max_iter: usize) -> SolverConfig {
    SolverConfig {
        kind: KrylovKind::Cg,
        tol: TOL,
        max_iter,
    }
}

#[test]
fn operator_port() {
    let fw = esi_assembly(cg_config(MAX_ITER));
    let a = dynamic(&fw, "matrix0", "A");
    assert_eq!(a.sidl_type(), "esi.MatrixOperator");

    assert!(matches!(call(&*a, "rows", vec![]), DynValue::Int(64)));
    assert!(matches!(call(&*a, "nnz", vec![]), DynValue::Int(288)));
    let x = input(NX * NX);
    let y = array(call(&*a, "apply", vec![arg_array(&x)]));
    let mut want = vec![0.0; NX * NX];
    matrix().matvec(&x, &mut want);
    assert_bits_equal(y.as_slice(), &want);
    assert_eq!(y.extents(), &[NX * NX]);
    assert_eq!(digest(y.as_slice()), 0x5572_d7a5_de1d_5318);

    assert_invoke_error(&*a, "apply", vec![]);
    assert_invoke_error(&*a, "apply", vec![DynValue::Str("x".into())]);
    assert_invoke_error(&*a, "transpose", vec![]);
}

#[test]
fn preconditioner_port() {
    let fw = esi_assembly(cg_config(MAX_ITER));
    let m = dynamic(&fw, "precond0", "M");
    assert_eq!(m.sidl_type(), "esi.Preconditioner");

    let r = input(NX * NX);
    let z = array(call(&*m, "applyInverse", vec![arg_array(&r)]));
    let mut want = vec![0.0; NX * NX];
    Jacobi::new(&matrix()).apply(&r, &mut want);
    assert_bits_equal(z.as_slice(), &want);
    assert_eq!(digest(z.as_slice()), 0x86a5_bdaa_0122_5b5d);
    assert_eq!(string(call(&*m, "name", vec![])), "jacobi");

    assert_invoke_error(&*m, "applyInverse", vec![]);
    assert_invoke_error(&*m, "applyInverse", vec![DynValue::Double(1.0)]);
    assert_invoke_error(&*m, "factor", vec![]);
}

#[test]
fn an_unbuilt_preconditioner_answers_as_the_identity() {
    // "A" left unconnected: the Jacobi factorization cannot be built.
    let fw = Framework::new(Repository::new());
    let precond = PrecondComponent::new(PrecondKind::Jacobi);
    fw.add_instance("precond0", precond.clone()).unwrap();
    expose_precond_ports(&precond).unwrap();
    let m = dynamic(&fw, "precond0", "M");
    let r = input(NX * NX);
    let z = array(call(&*m, "applyInverse", vec![arg_array(&r)]));
    assert_bits_equal(z.as_slice(), &r);
    assert_eq!(string(call(&*m, "name", vec![])), "unbuilt");
}

#[test]
fn solver_port() {
    let fw = esi_assembly(cg_config(MAX_ITER));
    let s = dynamic(&fw, "solver0", "solver");
    assert_eq!(s.sidl_type(), "esi.LinearSolver");

    assert!(matches!(
        call(&*s, "lastIterations", vec![]),
        DynValue::Int(-1)
    ));
    let b = input(NX * NX);
    let x = array(call(&*s, "solve", vec![arg_array(&b)]));
    let a = matrix();
    let mut want = vec![0.0; NX * NX];
    let stats = cg(
        &a,
        &Jacobi::new(&a),
        &b,
        &mut want,
        TOL,
        MAX_ITER,
        &SerialReduce,
    )
    .unwrap();
    assert!(stats.converged);
    assert_bits_equal(x.as_slice(), &want);
    assert_eq!(digest(x.as_slice()), 0xd3bc_0d9c_cc74_d563);
    assert_eq!(stats.iterations, 26);
    assert!(matches!(
        call(&*s, "lastIterations", vec![]),
        DynValue::Int(26)
    ));

    assert_invoke_error(&*s, "solve", vec![]);
    assert_invoke_error(&*s, "solve", vec![DynValue::Long(3)]);
    assert_invoke_error(&*s, "factor", vec![]);
}

#[test]
fn a_solve_that_does_not_converge_raises_solve_failure() {
    let fw = esi_assembly(cg_config(2));
    let s = dynamic(&fw, "solver0", "solver");
    let e = refused(&*s, "solve", vec![arg_array(&input(NX * NX))]);
    assert!(
        matches!(&e, SidlError::UserException { exception_type, .. } if exception_type == "esi.SolveFailure"),
        "{e:?}"
    );
    assert!(matches!(
        call(&*s, "lastIterations", vec![]),
        DynValue::Int(2)
    ));
}

// ---- the framework's ports --------------------------------------------------

trait Echo: Send + Sync {
    fn ping(&self) -> i64;
}
struct E;
impl Echo for E {
    fn ping(&self) -> i64 {
        1
    }
}

struct Provider;
impl Component for Provider {
    fn component_type(&self) -> &str {
        "t.Provider"
    }
    fn set_services(&self, s: Arc<CcaServices>) -> Result<(), CcaError> {
        let port: Arc<dyn Echo> = Arc::new(E);
        s.add_provides_port(PortHandle::new("out", "t.Echo", port))
    }
}

struct User;
impl Component for User {
    fn component_type(&self) -> &str {
        "t.User"
    }
    fn set_services(&self, s: Arc<CcaServices>) -> Result<(), CcaError> {
        s.register_uses_port("in", "t.Echo", TypeMap::new())
    }
}

/// p0 provides "out", u0 uses it as "in".
fn wired_framework() -> Arc<Framework> {
    let fw = Framework::new(Repository::new());
    fw.add_instance("p0", Arc::new(Provider)).unwrap();
    fw.add_instance("u0", Arc::new(User)).unwrap();
    fw.connect("u0", "in", "p0", "out").unwrap();
    fw
}

#[test]
fn monitor_port() {
    let fw = wired_framework();
    fw.install_monitor().unwrap();
    let mon = dynamic(&fw, "cca-monitor", "monitor");
    assert_eq!(mon.sidl_type(), "cca.ports.MonitorPort");

    assert_eq!(
        string(call(&*mon, "instances", vec![])),
        "[{\"name\":\"cca-monitor\",\"class\":\"cca.MonitorComponent\"},\
         {\"name\":\"p0\",\"class\":\"t.Provider\"},{\"name\":\"u0\",\"class\":\"t.User\"}]"
    );
    assert_eq!(
        string(call(&*mon, "connectionGraph", vec![])),
        "{\"instances\":[{\"name\":\"cca-monitor\",\"class\":\"cca.MonitorComponent\"},\
         {\"name\":\"p0\",\"class\":\"t.Provider\"},{\"name\":\"u0\",\"class\":\"t.User\"}],\
         \"connections\":[{\"user\":\"u0\",\"usesPort\":\"in\",\"provider\":\"p0\",\
         \"providesPort\":\"out\",\"portType\":\"t.Echo\",\"policy\":\"Direct\"}]}"
    );
    assert_eq!(
        keys(call(&*mon, "metricsJson", vec![])),
        ["cca-monitor", "p0", "u0"]
    );

    // Three counted calls on u0's "in", then the gate goes back off.
    assert!(matches!(
        call(&*mon, "setCounters", vec![DynValue::Bool(true)]),
        DynValue::Void
    ));
    let services = fw.services("u0").unwrap();
    for _ in 0..3 {
        let port: Arc<dyn Echo> = services.get_port_as("in").unwrap();
        assert_eq!(port.ping(), 1);
    }
    assert!(matches!(
        call(&*mon, "setCounters", vec![DynValue::Bool(false)]),
        DynValue::Void
    ));
    let count = call(
        &*mon,
        "callCount",
        vec![DynValue::Str("u0".into()), DynValue::Str("in".into())],
    );
    assert!(matches!(count, DynValue::Long(3)), "{count:?}");
    assert!(matches!(
        call(&*mon, "eventSubscriptions", vec![]),
        DynValue::Long(0)
    ));

    assert!(matches!(
        call(&*mon, "setTracing", vec![DynValue::Bool(true)]),
        DynValue::Void
    ));
    assert!(matches!(
        call(&*mon, "setTracing", vec![DynValue::Bool(false)]),
        DynValue::Void
    ));
    assert!(matches!(
        call(&*mon, "drainTrace", vec![DynValue::Str("jsonl".into())]),
        DynValue::Str(_)
    ));
    assert_eq!(
        keys(call(
            &*mon,
            "drainTrace",
            vec![DynValue::Str("chrome".into())]
        )),
        ["traceEvents", "displayTimeUnit"]
    );
    assert_eq!(
        keys(call(&*mon, "resilienceJson", vec![])),
        ["counters", "breakers"]
    );

    assert_invoke_error(&*mon, "callCount", vec![]);
    assert_invoke_error(&*mon, "setCounters", vec![]);
    assert_invoke_error(&*mon, "setTracing", vec![]);
    assert_invoke_error(&*mon, "drainTrace", vec![]);
    assert_invoke_error(
        &*mon,
        "callCount",
        vec![DynValue::Long(0), DynValue::Str("in".into())],
    );
    assert_invoke_error(
        &*mon,
        "callCount",
        vec![DynValue::Str("ghost".into()), DynValue::Str("in".into())],
    );
    assert_invoke_error(&*mon, "selfDestruct", vec![]);
}

#[test]
fn monitor_port_scrape_methods() {
    let fw = wired_framework();
    fw.install_monitor().unwrap();
    let obs = dynamic(&fw, "cca-monitor", "monitor");
    assert_eq!(obs.sidl_type(), "cca.ports.MonitorPort");

    assert_eq!(
        keys(call(&*obs, "snapshotJson", vec![])),
        [
            "tracing",
            "counters",
            "flight",
            "metrics",
            "resilience",
            "repo",
            "fleet"
        ]
    );
    assert!(matches!(
        call(&*obs, "traceJsonl", vec![]),
        DynValue::Str(_)
    ));
    assert_eq!(
        keys(call(&*obs, "flightJson", vec![])),
        ["enabled", "incidents"]
    );
    assert_eq!(
        keys(call(&*obs, "resilienceJson", vec![])),
        ["counters", "breakers"]
    );
    assert!(matches!(
        call(&*obs, "setTracing", vec![DynValue::Bool(false)]),
        DynValue::Void
    ));

    assert_invoke_error(&*obs, "setTracing", vec![]);
    assert_invoke_error(&*obs, "setTracing", vec![DynValue::Long(1)]);
    assert_invoke_error(&*obs, "selfDestruct", vec![]);
}

struct Nop;
impl Component for Nop {
    fn component_type(&self) -> &str {
        "t.Nop"
    }
    fn set_services(&self, _s: Arc<CcaServices>) -> Result<(), CcaError> {
        Ok(())
    }
}

fn entry(class: &str, desc: &str) -> ComponentEntry {
    ComponentEntry {
        class: class.into(),
        description: desc.into(),
        provides: vec![PortSpec::new("solve", "esi.Solver")],
        uses: vec![],
        properties: TypeMap::new(),
        factory: Arc::new(|| Arc::new(Nop) as Arc<dyn Component>),
    }
}

#[test]
fn discovery_port() {
    let repo = Repository::new();
    for (class, desc) in [
        ("esi.KrylovCg", "conjugate gradient solver"),
        ("esi.KrylovGmres", "restarted gmres solver"),
        ("viz.Plot", "line plots"),
    ] {
        repo.register_component(entry(class, desc)).unwrap();
    }
    let fw = Framework::new(repo);
    fw.install_discovery().unwrap();
    let disc = dynamic(&fw, "cca-discovery", "discovery");
    assert_eq!(disc.sidl_type(), "cca.ports.DiscoveryPort");

    assert!(matches!(
        call(&*disc, "componentCount", vec![]),
        DynValue::Long(3)
    ));
    assert_eq!(
        string(call(
            &*disc,
            "lookupJson",
            vec![DynValue::Str("esi.KrylovCg".into())]
        )),
        "{\"found\":true,\"class\":\"esi.KrylovCg\",\"description\":\"conjugate gradient \
         solver\",\"provides\":[{\"name\":\"solve\",\"type\":\"esi.Solver\"}],\"uses\":[]}"
    );
    assert_eq!(
        string(call(
            &*disc,
            "lookupJson",
            vec![DynValue::Str("esi.Missing".into())]
        )),
        "{\"found\":false,\"class\":\"esi.Missing\"}"
    );

    let search = |limit: i64| {
        string(call(
            &*disc,
            "searchJson",
            vec![DynValue::Str("krylov".into()), DynValue::Long(limit)],
        ))
    };
    let first = search(1);
    assert_eq!(
        first,
        "{\"hits\":[{\"class\":\"esi.KrylovCg\",\"score\":423200}],\"matched\":2,\
         \"cursor\":\"v1:423200:esi.KrylovCg\"}"
    );
    // A limit below one is clamped to one.
    assert_eq!(search(0), first);
    assert_eq!(search(-7), first);
    let cursor = first
        .split("\"cursor\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .unwrap()
        .to_string();
    assert_eq!(
        string(call(
            &*disc,
            "pageJson",
            vec![
                DynValue::Str("krylov".into()),
                DynValue::Long(1),
                DynValue::Str(cursor),
            ],
        )),
        "{\"hits\":[{\"class\":\"esi.KrylovGmres\",\"score\":423197}],\"matched\":1,\
         \"cursor\":null}"
    );
    assert_eq!(
        keys(call(&*disc, "statsJson", vec![])),
        ["components", "shards", "generations", "counters"]
    );

    assert_invoke_error(&*disc, "lookupJson", vec![]);
    assert_invoke_error(&*disc, "searchJson", vec![]);
    assert_invoke_error(&*disc, "pageJson", vec![]);
    assert_invoke_error(
        &*disc,
        "searchJson",
        vec![DynValue::Str("krylov".into()), DynValue::Str("1".into())],
    );
    assert_invoke_error(
        &*disc,
        "pageJson",
        vec![
            DynValue::Str("krylov".into()),
            DynValue::Long(1),
            DynValue::Str("not-a-cursor".into()),
        ],
    );
    assert_invoke_error(&*disc, "selfDestruct", vec![]);
}
