//! `hydro_direct` and `hydro_remote`: the Figure-1 semi-implicit hydro
//! timestep loop with the implicit solve routed through CCA ports —
//! direct-connect in one framework, or exported over `tcp+mux` and
//! reached from a second framework.

use super::probes::{self, TracedServant};
use crate::gen;
use crate::harness::{probe_ns, Ctx};
use crate::stats;
use crate::trace;
use cca::core::{CcaError, CcaServices, Component};
use cca::data::{NdArray, TypeMap};
use cca::framework::{Framework, RemoteTransportKind};
use cca::repository::Repository;
use cca::rpc::MuxServer;
use cca::sidl::{DynObject, DynValue};
use cca::solvers::esi::{
    expose_precond_ports, expose_solver_ports, LinearSolverPort, MatrixComponent, PrecondComponent,
    PrecondKind, SolverComponent, SolverConfig, ESI_SIDL,
};
use cca::solvers::hydro::SolveFn;
use cca::solvers::precond::Jacobi;
use cca::solvers::{cg, CsrMatrix, HydroConfig, HydroSim, KrylovKind, SerialReduce, SolveStats};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOL: f64 = 1e-8;
const MAX_ITER: usize = 600;
/// Largest |difference| from the monolithic reference an episode's final
/// field may show. Both deployments run the same arithmetic in the same
/// order and the wire codec is lossless, so the expected difference is 0.
const FIELD_TOLERANCE: f64 = 1e-12;

#[derive(Clone, Copy)]
struct Shape {
    /// Mesh is `n × n`.
    n: usize,
    steps: usize,
    remote: bool,
}

fn hydro_cfg(n: usize) -> HydroConfig {
    HydroConfig {
        nx: n,
        ny: n,
        dt: 1e-3,
        nu: 0.1,
        vx: 1.0,
        vy: 0.5,
        tol: TOL,
        max_iter: MAX_ITER,
        kind: KrylovKind::Cg,
    }
}

/// The user side of the remote connection: one uses slot for the solver.
struct Driver;
impl Component for Driver {
    fn component_type(&self) -> &str {
        "bench.HydroDriver"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        services.register_uses_port("solver", "esi.LinearSolver", TypeMap::new())
    }
}

struct Remote {
    _user_side: Arc<Framework>,
    server: Arc<MuxServer>,
    proxy: Arc<dyn DynObject>,
}

impl Drop for Remote {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

struct Assembly {
    fw: Arc<Framework>,
    solver: Arc<SolverComponent>,
    port: Arc<dyn LinearSolverPort>,
    dynamic: Arc<dyn DynObject>,
    matrix: CsrMatrix,
    field: Vec<f64>,
    remote: Option<Remote>,
}

fn build(seed: u64, shape: Shape) -> Result<Assembly, CcaError> {
    let field = {
        let _s = trace::span("bench.generate");
        gen::initial_field(seed, shape.n, shape.n)
    };
    let matrix = {
        let _s = trace::span("solvers.assemble_matrix");
        HydroSim::new(hydro_cfg(shape.n), 1, 0).local_matrix()
    };
    let repo = {
        let _s = trace::span("sidl.compile");
        black_box(cca::sidl::compile(ESI_SIDL).map_err(CcaError::Sidl)?);
        let repo = Repository::new();
        repo.deposit_sidl(ESI_SIDL).map_err(CcaError::Sidl)?;
        repo
    };
    let (fw, solver, handle) = {
        let _s = trace::span("framework.assemble");
        let fw = Framework::new(repo);
        fw.add_instance("matrix0", MatrixComponent::new(matrix.clone()))?;
        let precond = PrecondComponent::new(PrecondKind::Jacobi);
        let solver = SolverComponent::new(SolverConfig {
            kind: KrylovKind::Cg,
            tol: TOL,
            max_iter: MAX_ITER,
        });
        fw.add_instance("precond0", precond.clone())?;
        fw.add_instance("solver0", solver.clone())?;
        expose_precond_ports(&precond)?;
        expose_solver_ports(&solver)?;
        fw.connect("precond0", "A", "matrix0", "A")?;
        fw.connect("solver0", "A", "matrix0", "A")?;
        fw.connect("solver0", "M", "precond0", "M")?;
        let handle = fw.services("solver0")?.get_provides_port("solver")?;
        (fw, solver, handle)
    };
    let port: Arc<dyn LinearSolverPort> = handle.typed()?;
    let dynamic = Arc::clone(
        handle
            .dynamic()
            .ok_or_else(|| CcaError::Framework("solver port has no dynamic facade".into()))?,
    );
    let remote = if shape.remote {
        let _s = trace::span("framework.connect_remote");
        let key = fw.export_port("solver0", "solver")?;
        if trace::enabled() {
            // Traced run only: a decorator stands in the servant's place
            // so the server-side share of each call is a span of its own.
            let servant = fw.orb().unregister(&key).expect("just exported");
            fw.orb()
                .register(key.clone(), TracedServant::wrap("solvers.servant", servant));
        }
        let server = fw.serve_tcp_mux("127.0.0.1:0")?;
        let user_side = Framework::new(Repository::new());
        user_side.add_instance("driver0", Arc::new(Driver))?;
        user_side.connect_remote_with(
            "driver0",
            "solver",
            &server.local_addr().to_string(),
            &key,
            RemoteTransportKind::Mux,
        )?;
        let proxy = Arc::clone(
            user_side
                .services("driver0")?
                .get_port("solver")?
                .dynamic()
                .expect("a remote port is its own dynamic facade"),
        );
        // Warm-up: dial every pooled connection and fault in both paths.
        for _ in 0..2 * cca::rpc::DEFAULT_MUX_CONNECTIONS {
            remote_solve(&proxy, &field).map_err(CcaError::Sidl)?;
        }
        Some(Remote {
            _user_side: user_side,
            server,
            proxy,
        })
    } else {
        None
    };
    Ok(Assembly {
        fw,
        solver,
        port,
        dynamic,
        matrix,
        field,
        remote,
    })
}

fn remote_solve(
    proxy: &Arc<dyn DynObject>,
    rhs: &[f64],
) -> Result<NdArray<f64>, cca::sidl::SidlError> {
    let arr = NdArray::from_vec(&[rhs.len()], rhs.to_vec()).expect("1-d shape matches length");
    let reply = {
        let _s = trace::span_adopting("rpc.mux.call");
        proxy.invoke("solve", vec![DynValue::DoubleArray(arr)])?
    };
    match reply {
        DynValue::DoubleArray(out) => Ok(out),
        other => Err(cca::sidl::SidlError::invoke(format!(
            "solve returned {other:?}, not an array"
        ))),
    }
}

#[derive(Default)]
struct Episode {
    wall_s: f64,
    step_us: Vec<f64>,
    iterations: u64,
    final_field: Vec<f64>,
    error: Option<String>,
}

fn episode(shape: Shape, field: &[f64], solve: &SolveFn<'_>) -> Episode {
    let mut sim = HydroSim::new(hydro_cfg(shape.n), 1, 0);
    sim.u.copy_from_slice(field);
    let mut ep = Episode::default();
    let started = Instant::now();
    for step in 0..shape.steps {
        let t = Instant::now();
        let outcome = {
            let _s = trace::span("solvers.step");
            sim.step_with_solver(None, solve)
        };
        ep.step_us.push(t.elapsed().as_secs_f64() * 1e6);
        match outcome {
            Ok(stats) => {
                ep.iterations += stats.iterations as u64;
                if !stats.converged {
                    ep.error = Some(format!("step {step}: solve did not converge"));
                }
            }
            Err(e) => {
                ep.error = Some(format!("step {step}: {e}"));
                break;
            }
        }
    }
    ep.wall_s = started.elapsed().as_secs_f64();
    ep.final_field = sim.u;
    ep
}

impl Assembly {
    /// E6's `monolithic` closure: the same operator, preconditioner and
    /// zero initial guess, called directly.
    fn monolithic(&self, shape: Shape) -> Episode {
        let jacobi = Jacobi::new(&self.matrix);
        episode(shape, &self.field, &|_op, rhs, x| {
            x.fill(0.0);
            cg(&self.matrix, &jacobi, rhs, x, TOL, MAX_ITER, &SerialReduce)
        })
    }

    /// The deployment under test: the solve goes through the ports.
    fn componentized(&self, shape: Shape) -> Episode {
        match &self.remote {
            None => episode(shape, &self.field, &|_op, rhs, x| {
                let _s = trace::span("solvers.solve");
                let (solution, stats) = self.port.solve_system(rhs)?;
                x.copy_from_slice(&solution);
                Ok(stats)
            }),
            Some(remote) => episode(shape, &self.field, &|_op, rhs, x| {
                let out = remote_solve(&remote.proxy, rhs).map_err(CcaError::Sidl)?;
                x.copy_from_slice(out.as_slice());
                // Both frameworks live in this process, so the servant's
                // own statistics are one read away; a failed solve never
                // gets here (it crosses the wire as `esi.SolveFailure`).
                Ok(self.solver.last_stats().unwrap_or(SolveStats {
                    iterations: 0,
                    residual: f64::NAN,
                    converged: false,
                }))
            }),
        }
    }
}

/// An episode passes when every solve converged and its final field
/// matches the reference within [`FIELD_TOLERANCE`].
fn episode_failure(ep: &Episode, reference: &[f64]) -> Option<String> {
    if let Some(e) = &ep.error {
        return Some(e.clone());
    }
    if ep.final_field.len() != reference.len() {
        return Some("final field has the wrong length".into());
    }
    let worst = ep
        .final_field
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b).abs())
        .fold(
            0.0f64,
            |m, d| if d.is_nan() { f64::INFINITY } else { m.max(d) },
        );
    (worst > FIELD_TOLERANCE)
        .then(|| format!("final field is {worst:e} from the monolithic reference"))
}

struct Episodes {
    walls: Vec<f64>,
    /// Median step time of each episode, µs.
    step_us: Vec<f64>,
    iterations: Vec<u64>,
    /// One entry per episode that failed its oracle.
    failures: Vec<String>,
}

/// Whole episodes until `budget` is spent, at least three.
fn run_episodes(budget: Duration, reference: &[f64], mut run: impl FnMut() -> Episode) -> Episodes {
    let started = Instant::now();
    let mut out = Episodes {
        walls: Vec::new(),
        step_us: Vec::new(),
        iterations: Vec::new(),
        failures: Vec::new(),
    };
    while out.walls.len() < 3 || started.elapsed() < budget {
        let ep = run();
        out.failures.extend(episode_failure(&ep, reference));
        out.walls.push(ep.wall_s);
        out.step_us.push(stats::median_of(&ep.step_us));
        out.iterations.push(ep.iterations);
    }
    out
}

/// Every step of an episode that failed its oracle counts as failed.
fn account(ctx: &mut Ctx, shape: Shape, eps: &Episodes) {
    ctx.attempt((eps.walls.len() * shape.steps) as u64);
    for why in &eps.failures {
        ctx.fail_many(shape.steps as u64, || why.clone());
    }
}

/// Steps per second in the run's quiet episodes.
fn steps_per_s(shape: Shape, walls: &[f64]) -> f64 {
    shape.steps as f64 / stats::low_decile(walls)
}

pub fn direct(ctx: &mut Ctx) {
    let shape = Shape {
        n: ctx.size(192, 48),
        steps: ctx.size(40, 10),
        remote: false,
    };
    run(ctx, shape);
}

pub fn remote(ctx: &mut Ctx) {
    let shape = Shape {
        n: ctx.size(64, 32),
        steps: ctx.size(200, 20),
        remote: true,
    };
    run(ctx, shape);
}

fn run(ctx: &mut Ctx, shape: Shape) {
    let seed = ctx.seed();
    ctx.run(
        15,
        || build(seed, shape),
        |ctx, assembly| drive(ctx, shape, assembly),
    );
}

fn drive(ctx: &mut Ctx, shape: Shape, assembly: Assembly) {
    // The oracle: one monolithic episode per seed, outside every clock.
    let reference = assembly.monolithic(shape).final_field;
    let componentized = || assembly.componentized(shape);

    if !ctx.traced() {
        let budget = ctx.budget(1.0);
        let eps = ctx
            .pass("bench.run", || {
                run_episodes(budget, &reference, componentized)
            })
            .result;
        account(ctx, shape, &eps);
        ctx.put_from(
            "ops_per_s",
            steps_per_s(shape, &eps.walls),
            &eps.walls,
            "1/s",
        );
        ctx.put_quiet("op_p50_us", &eps.step_us, "us");
        return;
    }

    let budget = ctx.budget(0.3);
    // Tracing is off outside `ctx.pass`: this is the untraced baseline.
    let untraced = run_episodes(budget, &reference, componentized);
    account(ctx, shape, &untraced);
    let traced = ctx.pass("bench.run", || {
        run_episodes(budget, &reference, componentized)
    });
    account(ctx, shape, &traced.result);
    ctx.put_layer_table(&traced.spans, "bench.run");
    ctx.put_trace_overhead(
        steps_per_s(shape, &untraced.walls),
        steps_per_s(shape, &traced.result.walls),
    );
    layer_metrics(
        ctx,
        shape,
        &assembly,
        &reference,
        &untraced,
        &traced.result,
        &traced.spans,
    );
}

fn layer_metrics(
    ctx: &mut Ctx,
    shape: Shape,
    assembly: &Assembly,
    reference: &[f64],
    untraced: &Episodes,
    traced: &Episodes,
    spans: &[trace::Span],
) {
    let steps = (traced.walls.len() * shape.steps) as f64;
    let solve_span = if shape.remote {
        "solvers.servant"
    } else {
        "solvers.solve"
    };
    let solves = trace::durations(spans, solve_span);
    ctx.put_from(
        "solvers.solve_ms_per_step",
        solves.iter().sum::<f64>() / steps / 1e6,
        &solves,
        "ms",
    );
    ctx.put(
        "solvers.step_self_ms_per_step",
        trace::self_total(spans, "solvers.step") / steps / 1e6,
        "ms",
    );
    // Exact per seed: every episode starts from the same field.
    let iters = traced.iterations[0];
    ctx.check(
        untraced
            .iterations
            .iter()
            .chain(&traced.iterations)
            .all(|&i| i == iters),
        || "CG iteration count differs between episodes of one seed".into(),
    );
    ctx.put("solvers.cg_iters", iters as f64, "count");

    // Standalone matvec on the workload's own operator. Bytes are
    // computed from array sizes (values, column indices, row pointers,
    // x read once, y written once), not measured.
    let a = &assembly.matrix;
    let mut y = vec![0.0; a.nrows()];
    let matvec = probe_ns(15, 20, || a.matvec(black_box(&assembly.field), &mut y));
    let flops = 2.0 * a.nnz() as f64;
    let ns = stats::median_of(&matvec);
    ctx.put_from("solvers.matvec_gflops", flops / ns, &matvec, "GFLOP/s");
    let bytes = a.nnz() * 16 + (a.nrows() + 1) * 8 + a.nrows() * 16;
    ctx.put(
        "solvers.matvec_bytes_per_flop_computed",
        bytes as f64 / flops,
        "B/FLOP",
    );

    ctx.put("sidl.compile_ms", ctx.recorded_ms("sidl.compile"), "ms");
    ctx.put(
        "framework.assemble_ms",
        ctx.recorded_ms("framework.assemble"),
        "ms",
    );
    let services = assembly.fw.services("solver0").expect("solver0 exists");
    let get_port = probe_ns(15, 1000, || services.get_port("A"));
    ctx.put_samples("core.get_port_ns", &get_port, "ns");

    if !shape.remote {
        // Monolithic and componentized episodes alternate, so drift in the
        // machine's speed lands on both series alike; the share is a
        // ~1 % difference of two numbers this box moves by 2–3 %.
        let budget = ctx.budget(0.4);
        let mut flip = false;
        let both = run_episodes(budget, reference, || {
            flip = !flip;
            if flip {
                assembly.monolithic(shape)
            } else {
                assembly.componentized(shape)
            }
        });
        account(ctx, shape, &both);
        let series = |offset: usize| -> Vec<f64> {
            both.walls.iter().skip(offset).step_by(2).copied().collect()
        };
        let (mono, comp) = (series(0), series(1));
        let (monolithic, componentized) = (stats::low_decile(&mono), stats::low_decile(&comp));
        ctx.put_from(
            "core.port_overhead_share",
            (componentized - monolithic) / componentized,
            &comp,
            "ratio",
        );
        return;
    }

    ctx.put(
        "framework.connect_remote_ms",
        ctx.recorded_ms("framework.connect_remote"),
        "ms",
    );
    let calls: Vec<f64> = trace::durations(spans, "rpc.mux.call")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    ctx.put_samples("rpc.mux.call_p50_us", &calls, "us");
    ctx.put_tail("rpc.mux.call_p99_us", &calls, "us");
    let servant: Vec<f64> = solves.iter().map(|ns| ns / 1e3).collect();
    ctx.put_samples("rpc.servant_us", &servant, "us");

    // The facade's own price: the same solve through `DynObject::invoke`
    // (argument boxing, array copy-out) minus the typed port call.
    let rhs = &assembly.field;
    let arg = || {
        vec![DynValue::DoubleArray(
            NdArray::from_vec(&[rhs.len()], rhs.clone()).expect("1-d shape"),
        )]
    };
    // Interleaved, and compared at their lower deciles: the difference
    // (two 32 KiB copies and a boxed argument list) is a few µs, far
    // below the jitter of a single 0.4 ms solve.
    let (mut typed, mut dynamic) = (Vec::new(), Vec::new());
    for _ in 0..201 {
        typed.extend(probe_ns(1, 1, || assembly.port.solve_system(rhs)));
        dynamic.extend(probe_ns(1, 1, || assembly.dynamic.invoke("solve", arg())));
    }
    ctx.put_from(
        "sidl.dyn_invoke_ns",
        stats::low_decile(&dynamic) - stats::low_decile(&typed),
        &dynamic,
        "ns",
    );

    let solve = probes::echo_messages("solver0/solver", "solve", arg().remove(0));
    let codec_us = probes::wire_codec(ctx, &[solve]);
    probes::frame_encode(ctx, rhs.len() * 8);
    let transit = ctx.metric("rpc.mux.call_p50_us").unwrap_or(0.0)
        - ctx.metric("rpc.servant_us").unwrap_or(0.0)
        - codec_us;
    ctx.put("rpc.mux.transit_us", transit, "us");
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        n: 16,
        steps: 3,
        remote: false,
    };

    #[test]
    fn componentized_episode_matches_the_monolithic_reference() {
        let assembly = build(7, SMALL).expect("set-up");
        let reference = assembly.monolithic(SMALL);
        assert!(reference.iterations > 0);
        let ep = assembly.componentized(SMALL);
        assert_eq!(episode_failure(&ep, &reference.final_field), None);
        assert_eq!(ep.iterations, reference.iterations);
        assert_eq!(ep.step_us.len(), SMALL.steps);
    }

    #[test]
    fn remote_episode_matches_the_monolithic_reference() {
        let shape = Shape {
            remote: true,
            ..SMALL
        };
        let assembly = build(7, shape).expect("set-up");
        let reference = assembly.monolithic(shape);
        let ep = assembly.componentized(shape);
        assert_eq!(episode_failure(&ep, &reference.final_field), None);
        assert_eq!(ep.iterations, reference.iterations);
    }

    #[test]
    fn oracle_rejects_a_corrupted_field_and_a_failed_solve() {
        let reference = vec![0.25; 8];
        let good = Episode {
            final_field: reference.clone(),
            ..Episode::default()
        };
        assert_eq!(episode_failure(&good, &reference), None);

        let mut nudged = Episode {
            final_field: reference.clone(),
            ..Episode::default()
        };
        nudged.final_field[5] += 1e-11; // ten times the tolerance
        assert!(episode_failure(&nudged, &reference).is_some());

        let mut nan = Episode {
            final_field: reference.clone(),
            ..Episode::default()
        };
        nan.final_field[0] = f64::NAN;
        assert!(episode_failure(&nan, &reference).is_some());

        let short = Episode {
            final_field: reference[..7].to_vec(),
            ..Episode::default()
        };
        assert!(episode_failure(&short, &reference).is_some());

        let unconverged = Episode {
            final_field: reference.clone(),
            error: Some("step 2: solve did not converge".into()),
            ..Episode::default()
        };
        assert!(episode_failure(&unconverged, &reference).is_some());
    }

    #[test]
    fn the_seed_reaches_the_solver() {
        let a = build(1999, SMALL).expect("set-up").monolithic(SMALL);
        let b = build(7, SMALL).expect("set-up").monolithic(SMALL);
        assert_ne!(a.final_field, b.final_field);
    }
}
