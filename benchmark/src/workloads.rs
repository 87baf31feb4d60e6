//! The four reference sectors. Names and sizes are part of the contract
//! with later PRs; `BENCHMARK.json` repeats the names with their reasons.

use crate::surface::Family;

pub struct Workload {
    pub name: &'static str,
    pub family: Family,
    pub sites: usize,
    /// λ₀, λ₁ of the sector, from `--verify-refs` (serial product,
    /// unrestarted Lanczos).
    pub refs: [f64; 2],
    /// The `--smoke` stand-in: same family, seconds instead of minutes.
    pub smoke_sites: usize,
    pub smoke_refs: [f64; 2],
}

/// A solve fails when an eigenvalue is further than this from its reference.
pub const REF_TOL: f64 = 1e-8;

pub const WORKLOADS: &[Workload] = &[
    // Fused differential-ranking product and out-of-cache BLAS-1/CGS2
    // (26 × 5.6 MB of Krylov state) each carry about half of the solve.
    Workload {
        name: "u1_chain22",
        family: Family::U1Chain,
        sites: 22,
        refs: [-9.786880651766, -9.588107240606],
        smoke_sites: 16,
        smoke_refs: [-7.142296360617, -6.872106678366],
    },
    // The paper's family: the group walk over |G| = 96 is ~90 % of every
    // product and the solver ~1 %, so Krylov changes must not move it.
    Workload {
        name: "sym_chain24",
        family: Family::SymChain,
        sites: 24,
        refs: [-10.670014516537, -9.967721622474],
        smoke_sites: 16,
        smoke_refs: [-7.142296360617, -6.122315267678],
    },
    // Same engine, generic path: prefix-bucket ranking, Jordan–Wigner
    // signs, no fused generation.
    Workload {
        name: "hubbard12",
        family: Family::Hubbard,
        sites: 12,
        refs: [-9.730671493427, -9.602532138518],
        smoke_sites: 6,
        smoke_refs: [-4.698355190949, -4.420142949954],
    },
    // Row generation is cheap; routing, channels, owner-side ranking and
    // DistVec BLAS-1 do the work, and the shared-memory engine is bypassed.
    Workload {
        name: "dist_u1_chain20",
        family: Family::DistU1Chain,
        sites: 20,
        refs: [-8.904386529877, -8.686440986187],
        smoke_sites: 14,
        smoke_refs: [-6.263549533547, -5.956443823979],
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn sites(&self, smoke: bool) -> usize {
        if smoke {
            self.smoke_sites
        } else {
            self.sites
        }
    }

    pub fn refs(&self, smoke: bool) -> [f64; 2] {
        if smoke {
            self.smoke_refs
        } else {
            self.refs
        }
    }
}
