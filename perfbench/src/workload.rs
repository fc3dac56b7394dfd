//! The three workloads: which requests each one publishes, which keys it
//! serves, and how it splits its measuring time over the phases.
//!
//! Every workload runs the same five phases (see `phases.rs`), so every
//! end-to-end metric has one definition; a workload chooses the traffic
//! and the work each phase does per block.

use crate::rng::Rng;
use crate::world::{Kind, Req, Shape};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct, mixed specialization requests, every one a miss.
    ColdPublish,
    /// Zipf reads over a warm-started variant set, alone and beside a
    /// fixed-rate writer.
    HotDispatch,
    /// The paper's kernels, specialized once and run against their
    /// generic originals.
    KernelRun,
}

/// The fixed work of one block, and the share of the run the kernel
/// phase gets after the blocks. Every block does the same work, so a
/// change that makes one phase faster never changes how much another
/// phase measures.
#[derive(Debug, Clone, Copy)]
pub struct Work {
    /// Publish rounds per block (closed loop, one client).
    pub rounds: u32,
    /// Warm starts of the served checkpoint per block.
    pub warm_starts: u32,
    /// Read units (16 Ki timed reads each) of the reader alone per block.
    pub read_units: u32,
    /// Read units of the reader beside the fixed-rate writer per block.
    pub churn_units: u32,
    /// Share of `--seconds` left to the emulated kernel runs.
    pub kernels: f64,
}

/// One publish round: the images to boot and the distinct requests to
/// publish into them, plus the seeded scalar arguments each published
/// variant is checked on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Round {
    /// Images of the round's world.
    pub shape: Shape,
    /// Requests in the order they are sent.
    pub reqs: Vec<Req>,
    /// Arguments `x` the scalar variants are called with.
    pub xs: Vec<i64>,
}

/// Keys served by the warm, dispatch and churn phases: `madd` with this
/// many distinct known trip counts, as in the C5 experiment
/// (`crates/bench/src/serve.rs`, 24 fingerprints).
pub const SERVED_KEYS: usize = 24;
/// Smallest served trip count: C5 serves `b` = 41..=64.
pub const SERVED_B0: i64 = 41;
/// The served keys' popularity head: this many keys take
/// [`HEAD_PCT`]% of the reads (the C5 mix).
pub const HEAD_KEYS: usize = 8;
/// Percentage of reads landing on the head.
pub const HEAD_PCT: u64 = 90;
/// Distinct `churn` trip counts the writer cycles through, as in C5:
/// `b` = 65..=70, just above the served ones.
pub const CHURN_KEYS: i64 = 6;
/// Smallest `churn` trip count.
pub const CHURN_B0: i64 = SERVED_B0 + SERVED_KEYS as i64;
/// Writer publishes per second in the churn phase. C5's writer runs
/// closed loop; one such writer alone (publish plus invalidation of
/// `churn` at b = 65..=70 through a gated manager) managed 240–330
/// publishes/s on the baseline machine (see `README.md`). The open-loop
/// writer runs at half the low end, so it is busy about half the time
/// and its lateness stays measurable.
pub const WRITER_RATE: f64 = 120.0;

/// Kernel-run matrix width and height (E1/E3/E4 at a reduced size).
pub const KERNEL_XS: i64 = 32;
/// Kernel-run matrix height.
pub const KERNEL_YS: i64 = 32;
/// Sweeps per kernel run.
pub const KERNEL_ITERS: u32 = 2;
/// PGAS array length and node count of the kernel run.
pub const KERNEL_PGAS: (i64, i64) = (1024, 4);
/// `poly` exponent the A5 guard dispatches on.
pub const POLY_HOT_N: i64 = 16;
/// `madd` trip count of the C5 kernel.
pub const MADD_B: i64 = 41;

/// The six paper kernels in report order, with the request that
/// specializes each in a kernel world (stencil target 0, PGAS target 0).
pub const KERNELS: [(&str, Kind); 6] = [
    ("apply", Kind::Apply { t: 0 }),
    ("apply_grouped", Kind::Grouped { t: 0 }),
    ("sweep_u4", Kind::Sweep { t: 0, unroll: 4 }),
    ("gsum", Kind::Gsum { t: 0 }),
    ("poly_guard", Kind::Poly { n: POLY_HOT_N }),
    ("madd", Kind::Madd { b: MADD_B }),
];

/// The world the kernels are specialized and run in.
pub fn kernel_shape() -> Shape {
    Shape {
        stencils: vec![(KERNEL_XS, KERNEL_YS)],
        pgas: vec![KERNEL_PGAS],
    }
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "cold_publish" => Some(Workload::ColdPublish),
            "hot_dispatch" => Some(Workload::HotDispatch),
            "kernel_run" => Some(Workload::KernelRun),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPublish => "cold_publish",
            Workload::HotDispatch => "hot_dispatch",
            Workload::KernelRun => "kernel_run",
        }
    }

    /// The work of one block and the kernel phase's share of the run.
    /// A block takes about 0.13 s (`cold_publish`), 0.21 s
    /// (`hot_dispatch`) and 0.07 s (`kernel_run`) on the baseline
    /// machine, so a 30 s run holds about 220, 140 and 310 blocks.
    pub fn work(self) -> Work {
        match self {
            Workload::ColdPublish => Work {
                rounds: 1,
                warm_starts: 1,
                read_units: 1,
                churn_units: 2,
                kernels: 0.05,
            },
            Workload::HotDispatch => Work {
                rounds: 1,
                warm_starts: 4,
                read_units: 8,
                churn_units: 8,
                kernels: 0.05,
            },
            Workload::KernelRun => Work {
                rounds: 1,
                warm_starts: 1,
                read_units: 1,
                churn_units: 1,
                kernels: 0.25,
            },
        }
    }

    /// Publish round `i` of the stream seeded by `seed`.
    pub fn round(self, seed: u64, i: u64) -> Round {
        let mut rng = Rng::new(seed, 0x100 + i);
        let xs = (0..3).map(|_| rng.range(-1000, 1000)).collect();
        let (shape, mut reqs) = match self {
            Workload::ColdPublish => cold_round(&mut rng),
            Workload::HotDispatch => (
                Shape::default(),
                served_bs(seed)
                    .into_iter()
                    .map(|b| Req::plain(Kind::Madd { b }))
                    .collect(),
            ),
            Workload::KernelRun => {
                // A second C5 key beside the six kernels: with an odd
                // number of requests per round the median falls inside
                // one family's latencies, not on the gap between two.
                let second_madd = Kind::Madd { b: MADD_B - 1 };
                let kinds = KERNELS.iter().map(|&(_, k)| k).chain([second_madd]);
                (kernel_shape(), kinds.map(Req::plain).collect())
            }
        };
        rng.shuffle(&mut reqs);
        Round { shape, reqs, xs }
    }
}

/// A `cold_publish` round of 24 distinct requests:
///
/// - 16 `madd`, one known `b` per stratum of 8..=160 (90 to ~720 emitted
///   instructions; above b ≈ 70 the trace closes the loop);
/// - `apply` and `apply_grouped` on two stencil images, one narrow
///   (xs 8..=35) and one wide (xs 36..=64), [`COLD_YS`] rows each;
/// - whole-sweep rewrites with unroll 1, 2 and 4 on a seeded one of them;
/// - one PGAS `gsum` over 128..=512 elements on 2 or 4 nodes.
///
/// Exactly a quarter of the requests, seeded, ask for the aggressive
/// proof-gated coalescing.
fn cold_round(rng: &mut Rng) -> (Shape, Vec<Req>) {
    /// Rows of the `cold_publish` stencil images: few, so checking a
    /// published sweep in the emulator stays cheap.
    const COLD_YS: i64 = 4;
    const STRATA: i64 = 16;
    const B_LO: i64 = 8;
    const B_SPAN: i64 = 153;
    let mut kinds: Vec<Kind> = (0..STRATA)
        .map(|k| {
            let lo = B_LO + k * B_SPAN / STRATA;
            let hi = B_LO + (k + 1) * B_SPAN / STRATA - 1;
            Kind::Madd {
                b: rng.range(lo, hi),
            }
        })
        .collect();
    let shape = Shape {
        stencils: vec![(rng.range(8, 35), COLD_YS), (rng.range(36, 64), COLD_YS)],
        pgas: vec![(64 * rng.range(2, 8), [2, 4][rng.below(2)])],
    };
    for t in 0..2 {
        kinds.push(Kind::Apply { t });
        kinds.push(Kind::Grouped { t });
    }
    let t = rng.below(2);
    for unroll in [1, 2, 4] {
        kinds.push(Kind::Sweep { t, unroll });
    }
    kinds.push(Kind::Gsum { t: 0 });
    let mut aggressive: Vec<bool> = (0..kinds.len()).map(|i| i < kinds.len() / 4).collect();
    rng.shuffle(&mut aggressive);
    let reqs = kinds
        .into_iter()
        .zip(aggressive)
        .map(|(kind, aggressive)| Req { kind, aggressive })
        .collect();
    (shape, reqs)
}

/// The served `madd` trip counts, most popular first: C5's
/// [`SERVED_B0`].. in seeded popularity order.
pub fn served_bs(seed: u64) -> Vec<i64> {
    let mut rng = Rng::new(seed, 0x5E);
    let mut bs: Vec<i64> = (0..SERVED_KEYS as i64).map(|k| SERVED_B0 + k).collect();
    rng.shuffle(&mut bs);
    bs
}
