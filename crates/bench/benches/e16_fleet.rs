//! E16 — worker-fleet overhead and recovery latency.
//!
//! PR 9 moves ranks out of the framework process: collectives that used
//! to ride in-process channels now round-trip through the fleet hub over
//! real `tcp+mux://` sockets, and a dead rank is restarted and rejoined
//! instead of sinking the run. Two costs follow, both measured here:
//!
//! * `wire_allreduce_ns` vs `thread_allreduce_ns` — the same 4-rank
//!   f64 sum-allreduce on the in-process channel substrate and on
//!   hub-routed process-fleet wiring (real sockets, join handshake,
//!   long-poll recv), per call on rank 0, summarised by block medians.
//!   The ratio is the price of crash-survivability; both are recorded.
//! * `hub_messages_per_allreduce` — mailbox messages the hub relays per
//!   wire allreduce ([`cca_obs::FleetCounters::messages_relayed`] over the
//!   loop). A gather to rank 0 and a broadcast back is 2(n − 1) = 6 at
//!   four ranks. Gate: exactly 6, so a collective that sends a message
//!   twice turns CI red on any host.
//! * `restart_to_rejoin_ms` — wall-clock from `kill` of a joined
//!   rank to the replacement incarnation completing its join handshake:
//!   connection-death detection + breaker + backoff (2 ms base here) +
//!   relaunch + handshake. Gate: < 5 s, the deadline survivors park on.
//!
//! Rank "processes" for the restart measurement are threads behind the
//! [`RankLauncher`] trait — same supervision path (poll_exit, kill,
//! waitpid-style reap), none of the fork/exec noise, so the number is
//! the *framework's* recovery latency floor.

use cca_bench::{Harness, Report, Stats};
use cca_core::resilience::SystemClock;
use cca_framework::fleet::{
    FleetConfig, FleetHub, FleetSupervisor, HubLink, LaunchSpec, ProcessHandle, RankLauncher,
};
use cca_parallel::{spmd, SumOp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RANKS: usize = 4;

/// Rank 0's 4-rank sum-allreduce latencies on the thread substrate, ns.
fn thread_allreduce_ns(iters: usize) -> Vec<f64> {
    let samples = spmd(RANKS, |comm| {
        let mut local = Vec::new();
        for i in 0..iters {
            let start = Instant::now();
            let s = comm
                .allreduce(i as f64 + comm.rank() as f64, &SumOp)
                .unwrap();
            let elapsed = start.elapsed().as_secs_f64() * 1e9;
            std::hint::black_box(s);
            if comm.rank() == 0 {
                local.push(elapsed);
            }
        }
        local
    });
    samples.into_iter().flatten().collect()
}

/// The same allreduce with every rank behind a [`HubLink`] over real
/// sockets, ns, and the messages the hub relayed meanwhile.
fn wire_allreduce_ns(iters: usize) -> (Vec<f64>, u64) {
    let (_, server) = FleetHub::serve(RANKS, "127.0.0.1:0").expect("bind hub server");
    let addr = server.local_addr().to_string();

    let relayed_before = cca_obs::fleet().messages_relayed();
    let samples = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for rank in 0..RANKS {
            let addr = addr.clone();
            handles.push(scope.spawn(move || {
                let link = HubLink::connect(&addr, rank as u32, 1, &[], Duration::from_secs(30))
                    .expect("join hub");
                let comm = link.comm();
                let mut local = Vec::new();
                for i in 0..iters {
                    let start = Instant::now();
                    let s = comm.allreduce(i as f64 + rank as f64, &SumOp).unwrap();
                    let elapsed = start.elapsed().as_secs_f64() * 1e9;
                    std::hint::black_box(s);
                    if rank == 0 {
                        local.push(elapsed);
                    }
                }
                link.leave().expect("leave");
                local
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("wire rank"))
            .collect::<Vec<f64>>()
    });
    let relayed = cca_obs::fleet().messages_relayed() - relayed_before;
    server.shutdown();
    (samples, relayed)
}

// --- thread-backed rank "processes" for the restart measurement ---------

struct ThreadProc {
    alive: Arc<AtomicBool>,
    done: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ProcessHandle for ThreadProc {
    fn id(&self) -> u64 {
        0
    }

    fn poll_exit(&mut self) -> Option<i32> {
        self.done.load(Ordering::Acquire).then_some(-9)
    }

    fn kill(&mut self) {
        self.alive.store(false, Ordering::Release);
    }

    fn wait_exit(&mut self) -> i32 {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        -9
    }
}

struct ThreadLauncher;

impl RankLauncher for ThreadLauncher {
    fn launch(&self, spec: &LaunchSpec) -> std::io::Result<Box<dyn ProcessHandle>> {
        let alive = Arc::new(AtomicBool::new(true));
        let done = Arc::new(AtomicBool::new(false));
        let (a, d) = (Arc::clone(&alive), Arc::clone(&done));
        let spec = spec.clone();
        let thread = std::thread::spawn(move || {
            // Joining drops the link on exit: the socket teardown is the
            // death signal, exactly as for a killed OS process.
            let link = HubLink::connect(
                &spec.addr,
                spec.rank,
                spec.incarnation,
                &[],
                Duration::from_secs(30),
            )
            .expect("rank thread joins");
            while a.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(link);
            d.store(true, Ordering::Release);
        });
        Ok(Box::new(ThreadProc {
            alive,
            done,
            thread: Some(thread),
        }))
    }
}

/// Kill→rejoin latency of `rounds` restarts, ms.
fn restart_to_rejoin_ms(rounds: usize) -> Vec<f64> {
    let mut config = FleetConfig::new(2);
    config.base_backoff_ns = 2_000_000; // 2ms: measure the floor
    config.max_backoff_ns = 20_000_000;
    config.healthy_after_ns = 1_000_000;
    let sup = FleetSupervisor::new(config, Arc::new(ThreadLauncher), SystemClock::new())
        .expect("bind hub");
    sup.start();
    sup.start_monitor(Duration::from_millis(1));

    let wait_join = |incarnation: u32| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while sup.hub().latest_join(1).map(|(inc, _)| inc) != Some(incarnation) {
            assert!(
                Instant::now() < deadline,
                "rank 1 never reached incarnation {incarnation}"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
    };
    wait_join(1);

    let mut samples = Vec::with_capacity(rounds);
    for round in 0..rounds {
        // Let the rank reach healthy so the backoff is rewound and every
        // round measures the same (first-draw) schedule.
        std::thread::sleep(Duration::from_millis(5));
        let start = Instant::now();
        assert!(sup.kill_rank(1), "rank 1 must be running");
        wait_join(round as u32 + 2);
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    sup.shutdown();
    samples
}

fn main() {
    let h = Harness::from_env();
    let mut report = Report::new("e16_fleet", &h);
    let (allreduce_iters, restart_rounds) = h.pick((200, 3), (2000, 9));
    let block = allreduce_iters / 20;

    let thread = Stats::from_blocks(&thread_allreduce_ns(allreduce_iters), block);
    let (wire_ns, relayed) = wire_allreduce_ns(allreduce_iters);
    let wire = Stats::from_blocks(&wire_ns, block);
    report.count("ranks", RANKS as f64);
    report.metric("thread_allreduce_ns", thread);
    report.metric("wire_allreduce_ns", wire);
    report.count("wire_over_thread_ratio", wire.median / thread.median);
    report
        .count(
            "hub_messages_per_allreduce",
            relayed as f64 / allreduce_iters as f64,
        )
        .exactly(
            (2 * (RANKS - 1)) as f64,
            "an allreduce is a gather to rank 0 and a broadcast back, one hub relay per message",
        );
    report
        .metric(
            "restart_to_rejoin_ms",
            Stats::from_samples(&restart_to_rejoin_ms(restart_rounds)),
        )
        .at_most(
            5_000.0,
            "recovery must beat the 5 s deadline survivors park on",
        );
    report.finish();
}
