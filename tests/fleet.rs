//! Fleet kill-matrix integration test (PR 9, `harness = false`).
//!
//! Re-execs itself as the rank children: when `CCA_FLEET_RANK` is set
//! this binary runs one supervised rank (see `run_child`); otherwise it
//! is the supervisor driving three scenarios:
//!
//! 1. **kill-matrix** — the Figure-2 hydro pipeline on 4 child-process
//!    ranks. A seed-chosen victim rank is `kill -9`'d after a
//!    seed-chosen committed step; survivors roll back to the committed
//!    checkpoint, the supervisor restarts the victim under backoff, the
//!    group resynchronizes, and the run must converge to the same mass
//!    as an unkilled in-process `spmd` baseline. Seed comes from
//!    `CCA_FAULT_SEED` (the CI fleet-matrix lane crosses 1/7/42/1999).
//! 2. **shutdown-no-zombies** — mid-run shutdown kills and reaps every
//!    child, collecting a waitpid status for each.
//! 3. **zero-leak** — after everything, no process on the box still
//!    carries `CCA_FLEET_RANK` in its environment.

use cca::core::resilience::{fault_seed_from_env, SplitMix64, SystemClock};
use cca::core::CcaError;
use cca::data::le;
use cca::framework::fleet::{
    fleet_rank_env, run_worker, ExecLauncher, FleetConfig, FleetEvent, FleetRankEnv,
    FleetSupervisor, HubLink, RankLauncher, Worker,
};
use cca::parallel::Comm;
use cca::solvers::precond::Identity;
use cca::solvers::{HydroConfig, HydroSim, KrylovKind};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCENARIO_ENV: &str = "CCA_FLEET_SCENARIO";
const STEPS_ENV: &str = "CCA_FLEET_STEPS";
const FLEET_SIZE: usize = 4;
const TOTAL_STEPS: u64 = 6;

fn hydro_cfg() -> HydroConfig {
    HydroConfig {
        nx: 12,
        ny: 12,
        dt: 2e-3,
        nu: 0.2,
        vx: 0.7,
        vy: -0.4,
        tol: 1e-10,
        max_iter: 400,
        kind: KrylovKind::Cg,
    }
}

fn wait_until<T>(what: &str, deadline: Duration, mut probe: impl FnMut() -> Option<T>) -> T {
    let start = Instant::now();
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(
            start.elapsed() < deadline,
            "timed out after {deadline:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------

fn run_child(env: FleetRankEnv) -> ! {
    match std::env::var(SCENARIO_ENV).as_deref() {
        Ok("sleep") => run_child_sleep(env),
        _ => run_child_hydro(env),
    }
}

/// Joins the hub and idles until killed (the shutdown scenario).
fn run_child_sleep(env: FleetRankEnv) -> ! {
    let link = HubLink::connect(
        &env.addr,
        env.rank,
        env.incarnation,
        &[],
        Duration::from_secs(30),
    )
    .expect("sleep child joins hub");
    loop {
        std::thread::sleep(Duration::from_millis(25));
        let _ = link.generation();
    }
}

/// One hydro rank: the field is its checkpoint, the final mass its
/// result.
struct HydroRank {
    sim: HydroSim,
}

impl Worker for HydroRank {
    fn restore(&mut self, checkpoint: Option<(u64, &[u8])>) -> Result<(), CcaError> {
        let (p, rank) = (self.sim.mesh.p, self.sim.mesh.rank);
        self.sim = HydroSim::new(hydro_cfg(), p, rank);
        if let Some((_, blob)) = checkpoint {
            le::read_into(blob, &mut self.sim.u);
        }
        Ok(())
    }

    fn step(&mut self, comm: &Comm, _: u64) -> Result<Vec<u8>, CcaError> {
        self.sim.step(Some(comm), &Identity)?;
        Ok(le::encode(8 * self.sim.u.len(), |w| w.slice(&self.sim.u)))
    }

    fn finish(&mut self, comm: &Comm) -> Result<Vec<u8>, CcaError> {
        Ok(self.sim.mass(Some(comm))?.to_le_bytes().to_vec())
    }
}

/// Runs the hydro rank under `run_worker`, which rolls back to the last
/// committed checkpoint whenever a peer dies. Exits 0 after depositing
/// the final mass.
fn run_child_hydro(env: FleetRankEnv) -> ! {
    let total_steps: u64 = std::env::var(STEPS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(TOTAL_STEPS);
    let label = format!("tcp+mux://{}/hydro.rank{}", env.addr, env.rank);
    let link = HubLink::connect(
        &env.addr,
        env.rank,
        env.incarnation,
        &[label],
        Duration::from_secs(30),
    )
    .expect("hydro child joins hub");
    let sim = HydroSim::new(hydro_cfg(), env.size as usize, env.rank as usize);
    run_worker(&link, total_steps, &mut HydroRank { sim }).expect("hydro rank finishes");
    std::process::exit(0);
}

// ---------------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------------

fn fleet_config(seed: u64, size: usize) -> FleetConfig {
    let mut config = FleetConfig::new(size);
    config.seed = seed;
    config.base_backoff_ns = 20_000_000; // 20ms: fast restarts for CI
    config.max_backoff_ns = 200_000_000;
    config.healthy_after_ns = 50_000_000;
    config
}

fn hydro_launcher() -> Arc<dyn RankLauncher> {
    Arc::new(
        ExecLauncher::current_exe()
            .expect("resolve current test binary")
            .with_env(SCENARIO_ENV, "hydro")
            .with_env(STEPS_ENV, TOTAL_STEPS.to_string()),
    )
}

/// The unkilled reference: the same decomposition on in-process thread
/// ranks over the crossbeam substrate.
fn baseline_mass() -> f64 {
    let masses = cca::parallel::spmd(FLEET_SIZE, |comm| {
        let cfg = hydro_cfg();
        let mut sim = HydroSim::new(cfg, comm.size(), comm.rank());
        for _ in 0..TOTAL_STEPS {
            sim.step(Some(comm), &Identity).expect("baseline step");
        }
        sim.mass(Some(comm)).expect("baseline mass")
    });
    for m in &masses {
        assert!((m - masses[0]).abs() < 1e-15, "baseline ranks disagree");
    }
    masses[0]
}

fn scenario_kill_matrix(seed: u64) {
    let reference = baseline_mass();

    let mut rng = SplitMix64::new(seed);
    let victim = rng.next_below(FLEET_SIZE as u64) as usize;
    let kill_after_step = 1 + rng.next_below(2); // kill once step 1 or 2 committed
    eprintln!(
        "fleet kill-matrix: seed {seed} -> victim rank {victim} after committed step {kill_after_step}"
    );

    let sup = FleetSupervisor::new(
        fleet_config(seed, FLEET_SIZE),
        hydro_launcher(),
        SystemClock::new(),
    )
    .expect("bind fleet hub");
    sup.start();
    sup.start_monitor(Duration::from_millis(5));

    // Let the pipeline make real progress, then kill -9 mid-run.
    wait_until(
        "committed checkpoint before kill",
        Duration::from_secs(120),
        || sup.hub().committed_step().filter(|s| *s >= kill_after_step),
    );
    let dead_inc = sup.hub().latest_join(victim).expect("victim joined").0;
    assert!(sup.kill_rank(victim), "victim must be running when killed");

    // The run must still converge: every rank deposits a final mass.
    let results = wait_until(
        "all ranks' results after rejoin",
        Duration::from_secs(120),
        || sup.hub().all_results(),
    );
    assert_eq!(results.len(), FLEET_SIZE);
    for blob in &results {
        let mass = f64::from_le_bytes(blob.as_slice().try_into().expect("8-byte mass"));
        assert!(
            (mass - reference).abs() < 1e-12,
            "post-rejoin mass {mass} diverged from unkilled baseline {reference}"
        );
    }

    // The death was real and the recovery complete.
    assert!(sup.hub().generation() >= 1, "kill must bump the generation");
    let events = sup.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FleetEvent::Died { rank, .. } if *rank == victim as u32)),
        "supervisor must record the victim's death"
    );
    assert!(
        events.iter().any(
            |e| matches!(e, FleetEvent::Rejoined { rank, incarnation, .. }
                if *rank == victim as u32 && *incarnation > dead_inc)
        ),
        "victim must rejoin with a newer incarnation"
    );
    // Stale-label guard at the process level: the victim's provider
    // label resolves only to the post-restart incarnation.
    let label = format!("tcp+mux://{}/hydro.rank{victim}", sup.addr());
    if let Some((rank, inc)) = sup.hub().resolve_provider(&label) {
        assert_eq!(rank, victim as u32);
        assert!(
            inc > dead_inc,
            "label must never resolve to the dead incarnation"
        );
    }

    sup.shutdown();
}

fn scenario_shutdown_no_zombies() {
    let launcher: Arc<dyn RankLauncher> = Arc::new(
        ExecLauncher::current_exe()
            .expect("resolve current test binary")
            .with_env(SCENARIO_ENV, "sleep"),
    );
    let sup = FleetSupervisor::new(fleet_config(7, 3), launcher, SystemClock::new())
        .expect("bind fleet hub");
    sup.start();
    sup.start_monitor(Duration::from_millis(5));
    wait_until("all sleep children joined", Duration::from_secs(60), || {
        (0..3).all(|r| sup.hub().present(r)).then_some(())
    });

    let statuses = sup.shutdown();
    assert_eq!(statuses.len(), 3);
    for (rank, status) in statuses {
        let status = status.expect("every mid-run child is killed and reaped");
        assert_eq!(
            status, -9,
            "rank {rank}: sleep children die by SIGKILL only"
        );
    }
}

/// Scans /proc for any process (other than us) still carrying
/// `CCA_FLEET_RANK` in its environment.
fn leaked_fleet_children() -> Vec<u32> {
    let me = std::process::id();
    let mut leaked = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return leaked;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        if pid == me {
            continue;
        }
        let Ok(environ) = std::fs::read(entry.path().join("environ")) else {
            continue;
        };
        if environ
            .split(|&b| b == 0)
            .any(|kv| kv.starts_with(b"CCA_FLEET_RANK="))
        {
            leaked.push(pid);
        }
    }
    leaked
}

fn main() {
    if let Some(env) = fleet_rank_env() {
        run_child(env);
    }
    // `cargo test` passes harness flags (--nocapture etc.); ignore them.
    let seed = fault_seed_from_env();

    scenario_kill_matrix(seed);
    eprintln!("fleet: kill-matrix converged (seed {seed})");

    scenario_shutdown_no_zombies();
    eprintln!("fleet: shutdown reaped every child");

    let leaked = leaked_fleet_children();
    assert!(leaked.is_empty(), "leaked fleet children: {leaked:?}");
    println!("fleet: all scenarios passed (seed {seed})");
}
