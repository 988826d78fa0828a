//! The six workloads. Each is a plain function over the shared [`Ctx`]:
//! set up (timed), drive (timed, oracles on), report.

use crate::harness::Ctx;

mod hydro;
mod mxn;
mod probes;
mod repo;
mod rpc;

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: which layers it loads and which it leaves
    /// idle (one line, at most 200 characters; printed into BENCHMARK.json).
    pub why: &'static str,
    /// The unit of work `ops_per_s` is taken over (operations in a unit ÷
    /// the lower decile of the run's unit times).
    pub ops: &'static str,
    /// The operation `op_p50_us` times and the block its median is taken
    /// over (the lower decile of the run's block medians is reported).
    pub p50_of: &'static str,
    pub run: fn(&mut Ctx),
}

/// In the order they run and print.
pub const ALL: [Workload; 6] = [
    Workload {
        name: "hydro_direct",
        why: "192x192 hydro, solve through direct-connect ports: solver arithmetic is ~98% of a step, so port, obs and rpc changes must show nothing here",
        ops: "an episode: 40 hydro steps",
        p50_of: "one hydro step; block = episode",
        run: hydro::direct,
    },
    Workload {
        name: "hydro_remote",
        why: "64x64 hydro, solver port exported over tcp+mux, 32 KiB arrays each way: solve, mux transit and value codec each hold a visible share of a step",
        ops: "an episode: 200 hydro steps",
        p50_of: "one hydro step; block = episode",
        run: hydro::remote,
    },
    Workload {
        name: "rpc_unloaded",
        why: "one echo call in flight on one connection, smallest message: the per-call hop cost of the mux stack is the whole number",
        ops: "a block of 100 echo calls (time inside the calls; think time excluded)",
        p50_of: "one echo call; block = 100 calls",
        run: rpc::unloaded,
    },
    Workload {
        name: "rpc_pipelined",
        why: "waves of 256 echo calls in flight over 2 connections, a quarter carrying 8 KiB: the same mux layer used for batching and throughput",
        ops: "a wave: 256 echo calls",
        p50_of: "one call, submit to completion, 256 in flight; block = wave",
        run: rpc::pipelined,
    },
    Workload {
        name: "mxn_bulk",
        why: "32 MiB field frames over the bulk plane, alternately as contiguous slabs and strided runs: redist, bulk framing and sockets do all the work",
        ops: "a pair of 32 MiB field frames, one contiguous and one strided",
        p50_of: "one frame (a pair's mean); block = 4 pairs",
        run: mxn::bulk,
    },
    Workload {
        name: "repo_mixed",
        why: "100k-type catalog: exact lookups and fuzzy searches 50:1, then single deposits beside a reader; the only workload where the repository works",
        ops: "a phase-R round: 1600 lookups + 32 searches (four passes over the needle set)",
        p50_of: "one single-type deposit beside a reader (phase W); block = 10 deposits",
        run: repo::mixed,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
