//! The benchmark catalog (Table II) and scale profiles.

use std::fmt;

/// The 14 benchmarks of the HDPAT evaluation (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BenchmarkId {
    /// Advanced Encryption Standard (Hetero-Mark).
    Aes,
    /// Bitonic Sort (AMDAPPSDK).
    Bt,
    /// Fast Walsh Transform (AMDAPPSDK).
    Fwt,
    /// Fast Fourier Transform (SHOC).
    Fft,
    /// Finite Impulse Response filter (Hetero-Mark).
    Fir,
    /// Floyd-Warshall shortest paths (AMDAPPSDK).
    Fws,
    /// Image-to-column conversion (DNNMark).
    I2c,
    /// KMeans clustering (Hetero-Mark).
    Km,
    /// Matrix multiplication (AMDAPPSDK).
    Mm,
    /// Matrix transpose (AMDAPPSDK).
    Mt,
    /// PageRank (Hetero-Mark).
    Pr,
    /// Rectified linear unit (DNNMark).
    Relu,
    /// Simple convolution (AMDAPPSDK).
    Sc,
    /// Sparse matrix-vector multiplication (SHOC).
    Spmv,
}

/// Static Table II metadata for one benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchmarkInfo {
    /// Paper abbreviation ("AES", "SPMV", …).
    pub abbr: &'static str,
    /// Full benchmark name.
    pub name: &'static str,
    /// Source suite.
    pub suite: &'static str,
    /// Workgroup count in the paper's configuration.
    pub paper_workgroups: u64,
    /// Memory footprint in MB in the paper's configuration.
    pub paper_footprint_mb: u64,
    /// Dominant access-pattern class (§V-A's taxonomy).
    pub pattern: &'static str,
}

/// Simulation scale: how far the paper's configuration is reduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny configuration for unit/integration tests (sub-second sims).
    Unit,
    /// The default experiment scale used by the figures: preserves
    /// the paper's relative workgroup/footprint ratios at ~1/64 size.
    Bench,
    /// The paper's full Table II configuration (slow; hours of simulation).
    Full,
}

/// The concrete generator configuration for one `(benchmark, scale)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Number of workgroups to generate.
    pub workgroups: u64,
    /// Total buffer footprint in bytes.
    pub footprint_bytes: u64,
    /// Approximate memory operations per workgroup.
    pub ops_per_wg: usize,
    /// Kernel iterations (outer phases touching the data again).
    pub iterations: u32,
}

impl BenchmarkId {
    /// All benchmarks in Table II order.
    pub fn all() -> [BenchmarkId; 14] {
        [
            BenchmarkId::Aes,
            BenchmarkId::Bt,
            BenchmarkId::Fwt,
            BenchmarkId::Fft,
            BenchmarkId::Fir,
            BenchmarkId::Fws,
            BenchmarkId::I2c,
            BenchmarkId::Km,
            BenchmarkId::Mm,
            BenchmarkId::Mt,
            BenchmarkId::Pr,
            BenchmarkId::Relu,
            BenchmarkId::Sc,
            BenchmarkId::Spmv,
        ]
    }

    /// Looks a benchmark up by its Table II abbreviation (ASCII
    /// case-insensitive), e.g. `"SPMV"`.
    pub fn from_abbr(abbr: &str) -> Option<BenchmarkId> {
        Self::all()
            .into_iter()
            .find(|b| b.info().abbr.eq_ignore_ascii_case(abbr))
    }

    /// Table II metadata.
    pub fn info(self) -> BenchmarkInfo {
        match self {
            BenchmarkId::Aes => BenchmarkInfo {
                abbr: "AES",
                name: "Advanced Encryption Standard",
                suite: "Hetero-Mark",
                paper_workgroups: 4_096,
                paper_footprint_mb: 8,
                pattern: "partitioned streaming, iterative compute",
            },
            BenchmarkId::Bt => BenchmarkInfo {
                abbr: "BT",
                name: "Bitonic Sort",
                suite: "AMDAPPSDK",
                paper_workgroups: 16_384,
                paper_footprint_mb: 16,
                pattern: "power-of-two strided passes",
            },
            BenchmarkId::Fwt => BenchmarkInfo {
                abbr: "FWT",
                name: "Fast Walsh Transform",
                suite: "AMDAPPSDK",
                paper_workgroups: 16_384,
                paper_footprint_mb: 64,
                pattern: "butterfly passes over one buffer",
            },
            BenchmarkId::Fft => BenchmarkInfo {
                abbr: "FFT",
                name: "Fast Fourier Transform",
                suite: "SHOC",
                paper_workgroups: 32_768,
                paper_footprint_mb: 256,
                pattern: "butterfly with twiddle reuse",
            },
            BenchmarkId::Fir => BenchmarkInfo {
                abbr: "FIR",
                name: "Finite Impulse Response Filter",
                suite: "Hetero-Mark",
                paper_workgroups: 65_536,
                paper_footprint_mb: 256,
                pattern: "sliding window, small stride, iterative",
            },
            BenchmarkId::Fws => BenchmarkInfo {
                abbr: "FWS",
                name: "Floyd-Warshall Shortest Paths",
                suite: "AMDAPPSDK",
                paper_workgroups: 65_536,
                paper_footprint_mb: 72,
                pattern: "pivot row/column shared by all workgroups",
            },
            BenchmarkId::I2c => BenchmarkInfo {
                abbr: "I2C",
                name: "Image to Column Conversion",
                suite: "DNNMark",
                paper_workgroups: 16_384,
                paper_footprint_mb: 32,
                pattern: "overlapping window gather, sequential write",
            },
            BenchmarkId::Km => BenchmarkInfo {
                abbr: "KM",
                name: "KMeans",
                suite: "Hetero-Mark",
                paper_workgroups: 32_768,
                paper_footprint_mb: 40,
                pattern: "streamed points, hot centroid pages, iterative",
            },
            BenchmarkId::Mm => BenchmarkInfo {
                abbr: "MM",
                name: "Matrix Multiplication",
                suite: "AMDAPPSDK",
                paper_workgroups: 16_384,
                paper_footprint_mb: 256,
                pattern: "tiled, row reuse + strided column gather",
            },
            BenchmarkId::Mt => BenchmarkInfo {
                abbr: "MT",
                name: "Matrix Transpose",
                suite: "AMDAPPSDK",
                paper_workgroups: 524_288,
                paper_footprint_mb: 2_048,
                pattern: "row read, long-range scattered write",
            },
            BenchmarkId::Pr => BenchmarkInfo {
                abbr: "PR",
                name: "PageRank",
                suite: "Hetero-Mark",
                paper_workgroups: 524_288,
                paper_footprint_mb: 14,
                pattern: "edge stream + power-law rank gather",
            },
            BenchmarkId::Relu => BenchmarkInfo {
                abbr: "RELU",
                name: "Rectified Linear Unit",
                suite: "DNNMark",
                paper_workgroups: 1_310_720,
                paper_footprint_mb: 1_280,
                pattern: "pure single-pass streaming",
            },
            BenchmarkId::Sc => BenchmarkInfo {
                abbr: "SC",
                name: "Simple Convolution",
                suite: "AMDAPPSDK",
                paper_workgroups: 262_465,
                paper_footprint_mb: 256,
                pattern: "sliding window with filter reuse",
            },
            BenchmarkId::Spmv => BenchmarkInfo {
                abbr: "SPMV",
                name: "Sparse Matrix-Vector Multiplication",
                suite: "SHOC",
                paper_workgroups: 81_920,
                paper_footprint_mb: 120,
                pattern: "streamed matrix + irregular x-vector gather",
            },
        }
    }

    /// The generator configuration at `scale`.
    ///
    /// `Bench` keeps the paper's relative proportions at roughly 1/16 of
    /// the workgroups and 1/64 of the footprint (clamped so every benchmark
    /// saturates the 48-GPM wafer at least briefly); `Unit` shrinks to
    /// sub-second sims for tests.
    pub fn config(self, scale: Scale) -> WorkloadConfig {
        let info = self.info();
        let (workgroups, footprint_bytes) = match scale {
            Scale::Full => (info.paper_workgroups, info.paper_footprint_mb << 20),
            Scale::Bench => (
                (info.paper_workgroups / 16).clamp(256, 4_096),
                ((info.paper_footprint_mb << 20) / 64).clamp(1 << 20, 48 << 20),
            ),
            Scale::Unit => (
                (info.paper_workgroups / 256).clamp(96, 256),
                ((info.paper_footprint_mb << 20) / 512).clamp(256 << 10, 4 << 20),
            ),
        };
        let iterations = match self {
            // Iterative kernels relaunch over the same data.
            BenchmarkId::Aes | BenchmarkId::Fir | BenchmarkId::Km => 3,
            BenchmarkId::Fws | BenchmarkId::Pr => 4,
            BenchmarkId::Bt | BenchmarkId::Fwt | BenchmarkId::Fft => 1, // passes modelled in-trace
            _ => 1,
        };
        WorkloadConfig {
            workgroups,
            footprint_bytes,
            ops_per_wg: match self {
                BenchmarkId::Aes => 48, // compute-bound: more ops, bigger gaps
                BenchmarkId::Relu => 64,
                _ => 96,
            },
            iterations,
        }
    }
}

impl Scale {
    /// Every scale, smallest first.
    const ALL: [Scale; 3] = [Scale::Unit, Scale::Bench, Scale::Full];

    /// The scale's token: `unit`, `bench` or `full`. One spelling serves the
    /// command line, the daemon's wire protocol and run fingerprints.
    pub fn token(self) -> &'static str {
        match self {
            Scale::Unit => "unit",
            Scale::Bench => "bench",
            Scale::Full => "full",
        }
    }

    /// Looks a scale up by its [`Scale::token`] (ASCII case-insensitive).
    pub fn from_token(token: &str) -> Option<Scale> {
        Self::ALL
            .into_iter()
            .find(|s| s.token().eq_ignore_ascii_case(token))
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.info().abbr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_benchmarks() {
        assert_eq!(BenchmarkId::all().len(), 14);
    }

    #[test]
    fn table2_values_match_paper() {
        let spmv = BenchmarkId::Spmv.info();
        assert_eq!(spmv.paper_workgroups, 81_920);
        assert_eq!(spmv.paper_footprint_mb, 120);
        let mt = BenchmarkId::Mt.info();
        assert_eq!(mt.paper_workgroups, 524_288);
        assert_eq!(mt.paper_footprint_mb, 2_048);
        let aes = BenchmarkId::Aes.info();
        assert_eq!(aes.paper_workgroups, 4_096);
        assert_eq!(aes.paper_footprint_mb, 8);
    }

    #[test]
    fn abbreviations_are_unique() {
        let mut abbrs: Vec<_> = BenchmarkId::all().iter().map(|b| b.info().abbr).collect();
        abbrs.sort();
        let before = abbrs.len();
        abbrs.dedup();
        assert_eq!(abbrs.len(), before);
    }

    #[test]
    fn full_scale_matches_table2() {
        for id in BenchmarkId::all() {
            let cfg = id.config(Scale::Full);
            let info = id.info();
            assert_eq!(cfg.workgroups, info.paper_workgroups);
            assert_eq!(cfg.footprint_bytes, info.paper_footprint_mb << 20);
        }
    }

    #[test]
    fn scales_are_ordered() {
        for id in BenchmarkId::all() {
            let unit = id.config(Scale::Unit);
            let bench = id.config(Scale::Bench);
            let full = id.config(Scale::Full);
            assert!(unit.workgroups <= bench.workgroups);
            assert!(bench.workgroups <= full.workgroups);
            assert!(unit.footprint_bytes <= bench.footprint_bytes);
            assert!(bench.footprint_bytes <= full.footprint_bytes);
        }
    }

    #[test]
    fn bench_scale_preserves_relative_footprints() {
        let mt = BenchmarkId::Mt.config(Scale::Bench).footprint_bytes;
        let pr = BenchmarkId::Pr.config(Scale::Bench).footprint_bytes;
        assert!(mt > 4 * pr, "MT must stay much larger than PR");
    }

    #[test]
    fn tokens_round_trip() {
        for id in BenchmarkId::all() {
            assert_eq!(BenchmarkId::from_abbr(id.info().abbr), Some(id));
        }
        assert_eq!(BenchmarkId::from_abbr("spmv"), Some(BenchmarkId::Spmv));
        assert_eq!(BenchmarkId::from_abbr("NOPE"), None);
        let tokens: Vec<_> = Scale::ALL.iter().map(|s| s.token()).collect();
        assert_eq!(tokens, ["unit", "bench", "full"]);
        for scale in Scale::ALL {
            assert_eq!(Scale::from_token(scale.token()), Some(scale));
        }
        assert_eq!(Scale::from_token("BENCH"), Some(Scale::Bench));
        assert_eq!(Scale::from_token("huge"), None);
    }

    #[test]
    fn display_uses_abbreviation() {
        assert_eq!(format!("{}", BenchmarkId::Spmv), "SPMV");
        assert_eq!(format!("{}", BenchmarkId::Relu), "RELU");
    }
}
