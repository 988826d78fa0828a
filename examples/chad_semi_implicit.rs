//! Figure 1, executable: a CHAD-style semi-implicit simulation distributed
//! over four SPMD ranks, with a differently distributed visualization
//! consumer attached through a collective M×N port.
//!
//! ```text
//! cargo run --example chad_semi_implicit
//! ```
//!
//! The upper half of the paper's Figure 1 — mesh, discretization,
//! preconditioner ⇄ Krylov solver, all tightly coupled over 4 ranks — is
//! `HydroSim::step` with a communicator. The lower half — the visualizer
//! with its own distribution — receives the field over an `MxNPort` and
//! renders ASCII frames.

use cca::data::{DimDist, DistArrayDesc, Distribution, ProcessGrid};
use cca::framework::MxNPort;
use cca::parallel::spmd;
use cca::solvers::precond::Identity;
use cca::solvers::{HydroConfig, HydroSim, KrylovKind};
use cca::viz::{render_ascii, FieldStats};

fn main() {
    let cfg = HydroConfig {
        nx: 48,
        ny: 48,
        dt: 1.5e-3,
        nu: 0.08,
        vx: 1.2,
        vy: 0.6,
        tol: 1e-9,
        max_iter: 800,
        kind: KrylovKind::Cg,
    };
    let sim_ranks = 4;
    let steps = 30;
    let frames_every = 10;

    // Simulation side: [1, 4] grid, block rows (matches Mesh2d).
    let sim_desc = DistArrayDesc::new(
        &[cfg.nx, cfg.ny],
        Distribution::new(
            ProcessGrid::new(&[1, sim_ranks]).unwrap(),
            &[DimDist::Block, DimDist::Block],
        )
        .unwrap(),
    )
    .unwrap();
    // Visualization side: serial (the "local workstation" of §2.2),
    // occupying world rank 4.
    let viz_desc = DistArrayDesc::new(&[cfg.nx, cfg.ny], Distribution::serial(2).unwrap()).unwrap();
    let port = MxNPort::new(&sim_desc, &viz_desc, vec![0, 1, 2, 3], vec![4], 400).unwrap();

    println!(
        "Figure 1 scenario: {} sim ranks ({}x{} mesh) -> 1 viz rank, {} steps",
        sim_ranks, cfg.nx, cfg.ny, steps
    );
    println!(
        "redistribution plan: {} transfers, {} elements/frame ({} cross-rank)",
        port.plan().transfers().len(),
        port.plan().total_elements(),
        port.plan().moved_elements()
    );

    spmd(sim_ranks + 1, |c| {
        if c.rank() < sim_ranks {
            // ---- numerical component (upper half of Figure 1) ----
            let sub = c.split(Some(0), c.rank() as i64).unwrap().unwrap();
            let mut sim = HydroSim::new(cfg, sim_ranks, c.rank());
            for step in 0..steps {
                let stats = sim.step(Some(&sub), &Identity).unwrap();
                if step % frames_every == 0 {
                    port.send(c, &sim.u).unwrap();
                    // mass() is collective — every sim rank must call it.
                    let mass = sim.mass(Some(&sub)).unwrap();
                    if c.rank() == 0 {
                        println!(
                            "step {step:3}: CG {} iters, residual {:.2e}, mass {mass:.5}",
                            stats.iterations, stats.residual
                        );
                    }
                }
            }
        } else {
            // ---- visualization component (lower half of Figure 1) ----
            let _ = c.split(None, 0).unwrap();
            let frames = steps / frames_every + usize::from(steps % frames_every != 0);
            let n = viz_desc.local_count(0).unwrap();
            for frame in 0..frames {
                let mut field = vec![0.0f64; n];
                port.recv(c, &mut field).unwrap();
                let stats = FieldStats::of(&field);
                println!(
                    "viz frame {frame}: min {:.4} max {:.4} mean {:.4}",
                    stats.min, stats.max, stats.mean
                );
                println!("{}", render_ascii(&field, cfg.nx, cfg.ny, 64, 20));
            }
        }
    });
    println!("done.");
}
