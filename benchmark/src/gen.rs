//! Seeded input generators. Every input the workloads hand the program is
//! a pure function of `--seed`: each generator draws from its own
//! SplitMix64 stream keyed by the seed and a stream label, so adding a
//! generator never shifts another one's values.

use cca::core::{CcaError, CcaServices, Component};
use cca::data::TypeMap;
use cca::repository::{ComponentEntry, PortSpec};
use std::sync::Arc;

/// SplitMix64: tiny, fast, and good enough to decorrelate inputs.
pub struct Rng(u64);

impl Rng {
    /// The stream named `label` under `seed`.
    pub fn stream(seed: u64, label: &str) -> Self {
        // FNV-1a of the label, mixed into the seed.
        let h = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let mut rng = Rng(seed ^ h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero. The modulo bias is far
    /// below anything a workload could see at these ranges.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The hydro initial condition, sampled at the interior mesh points in
/// the solver's row-major `(i, j) -> j * nx + i` order: `HydroSim`'s own
/// Gaussian blob at (0.3, 0.4) plus three faint blobs (2 % of its height)
/// at seeded centres. The seed reaches every cell of the field and moves
/// the CG iteration count, but by a fraction of a percent — ten seeds
/// should measure the machine ten times, not ten different problems.
pub fn initial_field(seed: u64, nx: usize, ny: usize) -> Vec<f64> {
    let mut rng = Rng::stream(seed, "hydro.initial_field");
    let mut blobs = vec![[0.3, 0.4, 1.0]];
    blobs.extend((0..3).map(|_| [0.2 + 0.6 * rng.unit(), 0.2 + 0.6 * rng.unit(), 0.02]));
    let mut u = Vec::with_capacity(nx * ny);
    for j in 0..ny {
        let y = (j as f64 + 1.0) / (ny as f64 + 1.0);
        for i in 0..nx {
            let x = (i as f64 + 1.0) / (nx as f64 + 1.0);
            u.push(
                blobs
                    .iter()
                    .map(|[cx, cy, a]| {
                        a * (-((x - cx) * (x - cx) + (y - cy) * (y - cy)) / 0.01).exp()
                    })
                    .sum(),
            );
        }
    }
    u
}

/// A seeded field for the M×N frames: values in `[0, 1)`.
pub fn frame_values(seed: u64, label: &str, n: usize) -> Vec<f64> {
    let mut rng = Rng::stream(seed, label);
    (0..n).map(|_| rng.unit()).collect()
}

/// The pipelined request mix: exactly one in four requests carries the
/// array payload, in seeded order. `true` = array.
pub fn size_sequence(seed: u64, n: usize) -> Vec<bool> {
    let mut seq: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
    Rng::stream(seed, "rpc.size_sequence").shuffle(&mut seq);
    seq
}

const PKGS: [&str; 16] = [
    "esi", "hydro", "viz", "mesh", "io", "lin", "opt", "stat", "chem", "climate", "fusion",
    "combust", "grid", "data", "mxn", "orb",
];

const WORDS: [&str; 64] = [
    "Krylov",
    "Gmres",
    "Jacobi",
    "Hydro",
    "Euler",
    "Riemann",
    "Mesh",
    "Plot",
    "Stat",
    "Redist",
    "Fourier",
    "Newton",
    "Tensor",
    "Graph",
    "Kernel",
    "Cloud",
    "Solver",
    "Precond",
    "Stencil",
    "Flux",
    "Advect",
    "Diffuse",
    "Gauss",
    "Seidel",
    "Chebyshev",
    "Lanczos",
    "Arnoldi",
    "Schur",
    "Multigrid",
    "Coarsen",
    "Refine",
    "Partition",
    "Balance",
    "Gather",
    "Scatter",
    "Reduce",
    "Halo",
    "Ghost",
    "Bound",
    "Domain",
    "Field",
    "Particle",
    "Tracer",
    "Spline",
    "Wavelet",
    "Entropy",
    "Enthalpy",
    "Viscous",
    "Inviscid",
    "Laminar",
    "Turbulent",
    "Spectral",
    "Modal",
    "Nodal",
    "Quadrature",
    "Jacobian",
    "Hessian",
    "Adjoint",
    "Forward",
    "Inverse",
    "Transpose",
    "Symmetric",
    "Sparse",
    "Dense",
];

/// E17's query mix: six selective compound names and two broad words.
pub const NEEDLES: [&str; 8] = [
    "krylovgmres",
    "fourierschur",
    "newtonhalo",
    "riemannflux",
    "chebyshevadjoint",
    "multigridcoarsen",
    "krylov",
    "tensor",
];

struct Nop;
impl Component for Nop {
    fn component_type(&self) -> &str {
        "synthetic.Nop"
    }
    fn set_services(&self, _s: Arc<CcaServices>) -> Result<(), CcaError> {
        Ok(())
    }
}

/// E17's synthetic catalog with the word and package order shuffled by
/// the seed, so which ordinal carries which name — and therefore which
/// shard and posting list it lands in — differs per seed.
pub struct Corpus {
    words: Vec<&'static str>,
    pkgs: Vec<&'static str>,
}

impl Corpus {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::stream(seed, "repo.corpus");
        let mut words = WORDS.to_vec();
        let mut pkgs = PKGS.to_vec();
        rng.shuffle(&mut words);
        rng.shuffle(&mut pkgs);
        Corpus { words, pkgs }
    }

    fn parts(&self, i: usize) -> (&'static str, &'static str, &'static str) {
        let n = self.words.len();
        (
            self.pkgs[(i / (n * n)) % self.pkgs.len()],
            self.words[i % n],
            self.words[(i / n) % n],
        )
    }

    pub fn class_of(&self, i: usize) -> String {
        let (pkg, w1, w2) = self.parts(i);
        format!("{pkg}.{w1}{w2}{i:07}")
    }

    pub fn entry_of(&self, i: usize) -> ComponentEntry {
        let (pkg, w1, _) = self.parts(i);
        entry(
            self.class_of(i),
            format!("synthetic {w1} component {i}"),
            format!("{pkg}.{w1}Port"),
        )
    }
}

/// The k-th class phase W deposits. Its texts contain no needle, so the
/// per-seed known answers hold before, during and after the writes.
pub fn deposit_entry(k: usize) -> ComponentEntry {
    entry(
        deposit_class(k),
        format!("late arrival {k}"),
        "bench.LatePort".to_string(),
    )
}

pub fn deposit_class(k: usize) -> String {
    format!("bench.Late{k:07}")
}

fn entry(class: String, description: String, provides_type: String) -> ComponentEntry {
    ComponentEntry {
        class,
        description,
        provides: vec![PortSpec::new("main", provides_type)],
        uses: vec![PortSpec::new("go", "cca.ports.GoPort")],
        properties: TypeMap::new(),
        factory: Arc::new(|| Arc::new(Nop) as Arc<dyn Component>),
    }
}

/// `count` needle indices: the whole needle set in seeded order, repeated.
pub fn needle_order(seed: u64, count: usize) -> Vec<usize> {
    let mut rng = Rng::stream(seed, "repo.needle_order");
    let mut order = Vec::with_capacity(count + NEEDLES.len());
    while order.len() < count {
        let mut round: Vec<usize> = (0..NEEDLES.len()).collect();
        rng.shuffle(&mut round);
        order.extend(round);
    }
    order.truncate(count);
    order
}

/// `count` catalog ordinals to look up, uniformly over `types`.
pub fn lookup_ordinals(seed: u64, types: usize, count: usize) -> Vec<usize> {
    let mut rng = Rng::stream(seed, "repo.lookup_ordinals");
    (0..count).map(|_| rng.below(types)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        for seed in [1999u64, 7] {
            assert_eq!(initial_field(seed, 12, 9), initial_field(seed, 12, 9));
            assert_eq!(size_sequence(seed, 256), size_sequence(seed, 256));
            assert_eq!(needle_order(seed, 40), needle_order(seed, 40));
            assert_eq!(
                lookup_ordinals(seed, 1000, 64),
                lookup_ordinals(seed, 1000, 64)
            );
            assert_eq!(frame_values(seed, "f", 64), frame_values(seed, "f", 64));
            let (a, b) = (Corpus::new(seed), Corpus::new(seed));
            for i in [0usize, 63, 64, 4095, 4096, 99_999] {
                assert_eq!(a.class_of(i), b.class_of(i));
            }
        }
    }

    #[test]
    fn the_seed_reaches_every_generator() {
        assert_ne!(initial_field(1999, 12, 9), initial_field(7, 12, 9));
        assert_ne!(size_sequence(1999, 256), size_sequence(7, 256));
        assert_ne!(needle_order(1999, 40), needle_order(7, 40));
        assert_ne!(
            lookup_ordinals(1999, 1000, 64),
            lookup_ordinals(7, 1000, 64)
        );
        assert_ne!(frame_values(1999, "f", 64), frame_values(7, "f", 64));
        let (a, b) = (Corpus::new(1999), Corpus::new(7));
        assert!((0..64).any(|i| a.class_of(i) != b.class_of(i)));
    }

    #[test]
    fn streams_are_independent_of_each_other() {
        assert_ne!(frame_values(1999, "a", 8), frame_values(1999, "b", 8));
    }

    #[test]
    fn size_sequence_is_exactly_one_quarter_arrays() {
        let seq = size_sequence(1999, 256);
        assert_eq!(seq.iter().filter(|&&a| a).count(), 64);
    }

    #[test]
    fn corpus_classes_are_distinct_and_cover_every_needle() {
        let corpus = Corpus::new(1999);
        let classes: Vec<String> = (0..8192)
            .map(|i| corpus.class_of(i).to_lowercase())
            .collect();
        let mut unique = classes.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), classes.len());
        for needle in NEEDLES {
            assert!(classes.iter().any(|c| c.contains(needle)), "{needle}");
        }
        assert!(!deposit_class(3).to_lowercase().contains("tensor"));
    }

    #[test]
    fn needle_order_visits_the_whole_set_each_round() {
        let mut first_round = needle_order(7, 8);
        first_round.sort_unstable();
        assert_eq!(first_round, (0..8).collect::<Vec<_>>());
    }
}
