//! Supervised worker fleet, live:
//!
//! ```text
//! cargo run --example fleet
//! ```
//!
//! The parent binds the fleet hub, launches 3 ranks as child processes
//! (re-execing this same binary), lets them iterate a distributed
//! allreduce with per-step checkpoints, then `kill -9`s rank 1
//! mid-run. Watch the supervisor detect the death via connection
//! teardown, quarantine the rank behind its circuit breaker, restart it
//! under decorrelated-jitter backoff, and the group roll back to the
//! last committed checkpoint and converge anyway — same answer, one
//! murder later.

use cca::core::resilience::SystemClock;
use cca::core::CcaError;
use cca::framework::fleet::{
    fleet_rank_env, run_worker, ExecLauncher, FleetConfig, FleetRankEnv, FleetSupervisor, HubLink,
    RankLauncher, Worker,
};
use cca::parallel::{Comm, SumOp};
use std::sync::Arc;
use std::time::{Duration, Instant};

const STEPS: u64 = 8;

/// One rank's state: `value += allreduce(rank-dependent term)` per step.
struct Accumulate {
    rank: u32,
    value: f64,
}

impl Worker for Accumulate {
    fn restore(&mut self, checkpoint: Option<(u64, &[u8])>) -> Result<(), CcaError> {
        self.value = checkpoint.map_or(0.0, |(step, blob)| {
            eprintln!("[rank {}] resuming from committed step {step}", self.rank);
            f64::from_le_bytes(blob.try_into().expect("an 8-byte checkpoint"))
        });
        Ok(())
    }

    fn step(&mut self, comm: &Comm, step: u64) -> Result<Vec<u8>, CcaError> {
        let term = (self.rank as f64 + 1.0) / (step as f64 + 1.0);
        self.value += comm.allreduce(term, &SumOp)?;
        // Slow the loop down so the parent's kill lands mid-run.
        std::thread::sleep(Duration::from_millis(40));
        Ok(self.value.to_le_bytes().to_vec())
    }

    fn finish(&mut self, _: &Comm) -> Result<Vec<u8>, CcaError> {
        Ok(self.value.to_le_bytes().to_vec())
    }
}

/// Child mode: run the accumulation under `run_worker`, which rolls back
/// to the last committed checkpoint on fleet interruption.
fn run_rank(env: FleetRankEnv) -> ! {
    let link = HubLink::connect(
        &env.addr,
        env.rank,
        env.incarnation,
        &[format!("tcp+mux://{}/demo.rank{}", env.addr, env.rank)],
        Duration::from_secs(20),
    )
    .expect("join fleet hub");
    let mut work = Accumulate {
        rank: env.rank,
        value: 0.0,
    };
    run_worker(&link, STEPS, &mut work).expect("rank finishes");
    std::process::exit(0);
}

fn main() {
    if let Some(env) = fleet_rank_env() {
        run_rank(env);
    }

    let mut config = FleetConfig::new(3);
    config.base_backoff_ns = 30_000_000;
    config.max_backoff_ns = 300_000_000;
    config.healthy_after_ns = 60_000_000;
    let launcher: Arc<dyn RankLauncher> =
        Arc::new(ExecLauncher::current_exe().expect("current exe"));
    let sup = FleetSupervisor::new(config, launcher, SystemClock::new()).expect("bind hub");
    println!("fleet hub listening on {}", sup.addr());
    sup.start();
    sup.start_monitor(Duration::from_millis(5));

    // Let the fleet commit a couple of steps, then kill rank 1.
    let deadline = Instant::now() + Duration::from_secs(60);
    while sup.hub().committed_step() < Some(2) {
        assert!(Instant::now() < deadline, "fleet never made progress");
        std::thread::sleep(Duration::from_millis(10));
    }
    println!(
        "committed step {:?} — kill -9 rank 1",
        sup.hub().committed_step()
    );
    sup.kill_rank(1);

    // Convergence despite the murder.
    let results = loop {
        if let Some(r) = sup.hub().all_results() {
            break r;
        }
        assert!(Instant::now() < deadline, "fleet never converged");
        std::thread::sleep(Duration::from_millis(10));
    };
    for (rank, blob) in results.iter().enumerate() {
        let v = f64::from_le_bytes(blob.as_slice().try_into().unwrap());
        println!("rank {rank} final value: {v:.12}");
    }

    println!("\nsupervision log:");
    for ev in sup.events() {
        println!("  {}", ev.to_json());
    }
    println!(
        "\nfleet counters: {}",
        cca::obs::fleet().snapshot().to_json()
    );
    sup.shutdown();
    println!("fleet shut down; every child reaped.");
}
