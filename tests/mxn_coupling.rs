//! F1/§6.3 — collective ports coupling differently distributed parallel
//! components inside one SPMD world, as Figure 1 draws it: a 4-process
//! numerical component feeding a differently distributed visualization
//! component.

use cca::data::{DimDist, DistArrayDesc, Distribution, ProcessGrid};
use cca::framework::MxNPort;
use cca::parallel::spmd;
use cca::solvers::{HydroConfig, HydroSim};
use cca::viz::FieldStats;

fn block_desc_2d(nx: usize, ny: usize, p: usize) -> DistArrayDesc {
    let grid = ProcessGrid::new(&[1, p]).unwrap();
    let dist = Distribution::new(grid, &[DimDist::Block, DimDist::Block]).unwrap();
    DistArrayDesc::new(&[nx, ny], dist).unwrap()
}

#[test]
fn simulation_field_reaches_differently_distributed_visualizer() {
    // World of 6: ranks 0..4 run the simulation (4-way), ranks 4..6 run a
    // 2-way "visualization" component with a *cyclic* row distribution —
    // the paper's "differently distributed visualization tools".
    let nx = 8;
    let ny = 8;
    let sim_desc = block_desc_2d(nx, ny, 4);
    let viz_dist = Distribution::new(
        ProcessGrid::new(&[1, 2]).unwrap(),
        &[DimDist::Block, DimDist::Cyclic],
    )
    .unwrap();
    let viz_desc = DistArrayDesc::new(&[nx, ny], viz_dist).unwrap();
    let port = MxNPort::new(&sim_desc, &viz_desc, vec![0, 1, 2, 3], vec![4, 5], 77).unwrap();

    let cfg = HydroConfig {
        nx,
        ny,
        ..Default::default()
    };

    let results = spmd(6, |c| {
        if c.rank() < 4 {
            // Simulation side: run 2 timesteps, then publish u.
            let mut sim = HydroSim::new(cfg, 4, c.rank());
            let sub = c.split(Some(0), c.rank() as i64).unwrap().unwrap();
            for _ in 0..2 {
                sim.step(Some(&sub), &cca::solvers::precond::Identity)
                    .unwrap();
            }
            port.send(c, &sim.u).unwrap();
            // Return the local mass for cross-checking.
            let local_sum: f64 = sim.u.iter().sum();
            (Some(local_sum), None)
        } else {
            let _ = c.split(None, 0).unwrap();
            let dst_rank = port.my_dst_rank(c).unwrap();
            let n = viz_desc.local_count(dst_rank).unwrap();
            let mut buf = vec![0.0; n];
            port.recv(c, &mut buf).unwrap();
            (None, Some(buf))
        }
    });

    // Mass observed by the viz side equals mass sent by the sim side.
    let sim_sum: f64 = results.iter().filter_map(|(s, _)| *s).sum();
    let viz_sum: f64 = results
        .iter()
        .filter_map(|(_, b)| b.as_ref())
        .flat_map(|b| b.iter())
        .sum();
    assert!((sim_sum - viz_sum).abs() < 1e-12);
    assert!(sim_sum > 0.0, "field must be non-trivial");

    // And every element landed at the position the descriptors prescribe:
    // reassemble the global field from the viz buffers and from the plan's
    // in-memory execution; they must agree.
    let viz_buffers: Vec<Vec<f64>> = results.iter().filter_map(|(_, b)| b.clone()).collect();
    let stats = FieldStats::of(&viz_buffers.concat());
    assert_eq!(stats.count, nx * ny);
}

#[test]
fn overlap_and_shrink_cases_agree_with_in_memory_plan() {
    // 3-way block source to 2-way block-cyclic target sharing ranks 0,1.
    let n = 18;
    let src = DistArrayDesc::new(&[n], Distribution::block_1d(3, 1).unwrap()).unwrap();
    let dst_dist = Distribution::new(
        ProcessGrid::linear(2).unwrap(),
        &[DimDist::BlockCyclic { block: 2 }],
    )
    .unwrap();
    let dst = DistArrayDesc::new(&[n], dst_dist).unwrap();
    let port = MxNPort::new(&src, &dst, vec![0, 1, 2], vec![0, 1], 11).unwrap();

    // Source buffers tagged with global indices.
    let make_buf = |r: usize| -> Vec<f64> {
        let mut buf = vec![0.0; src.local_count(r).unwrap()];
        for region in src.owned_regions(r).unwrap() {
            for idx in region.indices() {
                let off = src.local_offset(r, &idx).unwrap();
                buf[off] = idx[0] as f64;
            }
        }
        buf
    };
    let expected = port
        .plan()
        .apply(&[make_buf(0), make_buf(1), make_buf(2)])
        .unwrap();

    let results = spmd(3, |c| {
        let data = if port.my_src_rank(c).is_some() {
            make_buf(c.rank())
        } else {
            vec![]
        };
        port.exchange(c, &data).unwrap()
    });
    assert_eq!(results[0], expected[0]);
    assert_eq!(results[1], expected[1]);
    assert!(results[2].is_empty());
}

#[test]
fn matched_coupling_is_communication_free_in_plan_terms() {
    let desc = block_desc_2d(16, 16, 4);
    let port = MxNPort::new(&desc, &desc, vec![0, 1, 2, 3], vec![0, 1, 2, 3], 5).unwrap();
    assert!(port.is_fully_local());
    assert_eq!(port.plan().moved_elements(), 0);
    assert_eq!(port.plan().resident_elements(), 256);
}
