//! The Strassen-Winograd recursion step encoded **as data**.
//!
//! The paper's §2 recurrences:
//!
//! ```text
//! S1 = A21 + A22        T1 = B12 − B11
//! S2 = S1 − A11         T2 = B22 − T1
//! S3 = A11 − A21        T3 = B22 − B12
//! S4 = A12 − S2         T4 = B21 − T2
//!
//! P1 = A11·B11   P2 = A12·B21   P3 = S1·T1   P4 = S2·T2
//! P5 = S3·T3     P6 = S4·B22    P7 = A22·T4
//!
//! C11 = U1 = P1 + P2
//!       U2 = P1 + P4
//!       U3 = U2 + P5
//! C21 = U4 = U3 + P7
//! C22 = U5 = U3 + P3
//!       U6 = U2 + P3
//! C12 = U7 = U6 + P6
//! ```
//!
//! 7 multiplications and 15 additions — the minimum for a quadrant-based
//! recursive algorithm. [`WINOGRAD_LOWMEM_SCHEDULE`] linearizes these
//! recurrences in Boyer/Dumas/Pernet/Zhou's low-memory order: one
//! `S`-shaped temporary (`TS`), one `T`-shaped temporary (`TT`), one
//! product-shaped temporary (`TP`) and the four `C` quadrants themselves
//! as product scratch, with the inputs read-only. It is legal to use `C`
//! quadrants as scratch only when they do not alias each other — true for
//! Morton storage (quadrants are disjoint contiguous buffer quarters).
//!
//! Keeping the schedule as data gives one source of truth for the Morton
//! executor in [`crate::plan`]; the address-tracing mirror in
//! `modgemm-cachesim` follows the same order step for step. A test in
//! this module *proves* the schedule correct by symbolic interpretation
//! over exact integer matrices.

/// Operand slots shaped like a quadrant of `A` (`m/2 × k/2`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ASlot {
    /// NW quadrant of A.
    A11,
    /// NE quadrant of A.
    A12,
    /// SW quadrant of A.
    A21,
    /// SE quadrant of A.
    A22,
    /// The `S`-shaped temporary.
    TS,
}

impl ASlot {
    /// Index into a five-element slot table `[A11, A12, A21, A22, TS]`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            ASlot::A11 => 0,
            ASlot::A12 => 1,
            ASlot::A21 => 2,
            ASlot::A22 => 3,
            ASlot::TS => 4,
        }
    }
}

/// Operand slots shaped like a quadrant of `B` (`k/2 × n/2`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BSlot {
    /// NW quadrant of B.
    B11,
    /// NE quadrant of B.
    B12,
    /// SW quadrant of B.
    B21,
    /// SE quadrant of B.
    B22,
    /// The `T`-shaped temporary.
    TT,
}

impl BSlot {
    /// Index into a five-element slot table `[B11, B12, B21, B22, TT]`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            BSlot::B11 => 0,
            BSlot::B12 => 1,
            BSlot::B21 => 2,
            BSlot::B22 => 3,
            BSlot::TT => 4,
        }
    }
}

/// Slots shaped like a quadrant of `C` (`m/2 × n/2`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CSlot {
    /// NW quadrant of C.
    C11,
    /// NE quadrant of C.
    C12,
    /// SW quadrant of C.
    C21,
    /// SE quadrant of C.
    C22,
    /// The product-shaped temporary.
    TP,
}

impl CSlot {
    /// Index into a five-element slot table `[C11, C12, C21, C22, TP]`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            CSlot::C11 => 0,
            CSlot::C12 => 1,
            CSlot::C21 => 2,
            CSlot::C22 => 3,
            CSlot::TP => 4,
        }
    }
}

/// `dst = lhs + rhs` or `dst = lhs − rhs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddKind {
    /// `dst = lhs + rhs`.
    Add,
    /// `dst = lhs − rhs`.
    Sub,
}

/// One step of the linearized Winograd recursion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// `dst = lhs ± rhs` over `A`-shaped operands (dst is always `TS`).
    AddA {
        /// Destination (always [`ASlot::TS`] in the canonical schedule).
        dst: ASlot,
        /// Left operand.
        lhs: ASlot,
        /// Right operand.
        rhs: ASlot,
        /// Add or subtract.
        kind: AddKind,
    },
    /// `dst = lhs ± rhs` over `B`-shaped operands (dst is always `TT`).
    AddB {
        /// Destination (always [`BSlot::TT`] in the canonical schedule).
        dst: BSlot,
        /// Left operand.
        lhs: BSlot,
        /// Right operand.
        rhs: BSlot,
        /// Add or subtract.
        kind: AddKind,
    },
    /// `dst = lhs ± rhs` over `C`-shaped slots.
    AddC {
        /// Destination slot.
        dst: CSlot,
        /// Left operand.
        lhs: CSlot,
        /// Right operand.
        rhs: CSlot,
        /// Add or subtract.
        kind: AddKind,
    },
    /// `dst = a · b` — a recursive (half-size) multiplication that
    /// *overwrites* `dst`.
    Mul {
        /// `A`-shaped operand.
        a: ASlot,
        /// `B`-shaped operand.
        b: BSlot,
        /// Destination slot.
        dst: CSlot,
    },
}

use ASlot::*;
use BSlot::*;
use CSlot::*;
use Step::*;

/// Boyer/Dumas/Pernet/Zhou low-memory Winograd schedule (*Memory
/// efficient scheduling of Strassen-Winograd's matrix multiplication
/// algorithm*): 7 multiplies, 15 additions — the same arithmetic as a
/// four-temporary linearization — but only *three* temporaries (`TS`,
/// `TT`, `TP`): the per-level extra footprint is `qa + qb + qc`, and the
/// inputs stay read-only. Every staged level of every plan runs it.
///
/// Product placement: `P5→C21, P3→C22, P4→C12, P6→C11, P1→TP, P7→C11,
/// P2→C11` (C11 is recycled twice, each time after its previous tenant
/// has been folded into the running combination).
pub const WINOGRAD_LOWMEM_SCHEDULE: [Step; 22] = [
    // S3 = A11 − A21, T3 = B22 − B12, P5 = S3·T3 → C21
    AddA { dst: TS, lhs: A11, rhs: A21, kind: AddKind::Sub },
    AddB { dst: TT, lhs: B22, rhs: B12, kind: AddKind::Sub },
    Mul { a: TS, b: TT, dst: C21 },
    // S1 = A21 + A22, T1 = B12 − B11, P3 = S1·T1 → C22
    AddA { dst: TS, lhs: A21, rhs: A22, kind: AddKind::Add },
    AddB { dst: TT, lhs: B12, rhs: B11, kind: AddKind::Sub },
    Mul { a: TS, b: TT, dst: C22 },
    // S2 = S1 − A11, T2 = B22 − T1, P4 = S2·T2 → C12
    AddA { dst: TS, lhs: TS, rhs: A11, kind: AddKind::Sub },
    AddB { dst: TT, lhs: B22, rhs: TT, kind: AddKind::Sub },
    Mul { a: TS, b: TT, dst: C12 },
    // S4 = A12 − S2, P6 = S4·B22 → C11
    AddA { dst: TS, lhs: A12, rhs: TS, kind: AddKind::Sub },
    Mul { a: TS, b: B22, dst: C11 },
    // P1 = A11·B11 → TP
    Mul { a: A11, b: B11, dst: TP },
    // U2 = P1 + P4 → C12
    AddC { dst: C12, lhs: TP, rhs: C12, kind: AddKind::Add },
    // U3 = U2 + P5 → C21
    AddC { dst: C21, lhs: C12, rhs: C21, kind: AddKind::Add },
    // U6 = U2 + P3 → C12, then C12 = U7 = U6 + P6 (frees C11)
    AddC { dst: C12, lhs: C12, rhs: C22, kind: AddKind::Add },
    AddC { dst: C12, lhs: C12, rhs: C11, kind: AddKind::Add },
    // C22 = U5 = U3 + P3
    AddC { dst: C22, lhs: C21, rhs: C22, kind: AddKind::Add },
    // T4 = B21 − T2, P7 = A22·T4 → C11 (free again)
    AddB { dst: TT, lhs: B21, rhs: TT, kind: AddKind::Sub },
    Mul { a: A22, b: TT, dst: C11 },
    // C21 = U4 = U3 + P7
    AddC { dst: C21, lhs: C21, rhs: C11, kind: AddKind::Add },
    // P2 = A12·B21 → C11, C11 = U1 = P1 + P2
    Mul { a: A12, b: B21, dst: C11 },
    AddC { dst: C11, lhs: TP, rhs: C11, kind: AddKind::Add },
];

/// The linearization of the recursion step plans run. One tier is left:
/// the low-memory schedule ([`WINOGRAD_LOWMEM_SCHEDULE`]). The type stays
/// so that metrics can name the schedule a plan ran
/// (`ExecMetrics::schedule_selected`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// [`WINOGRAD_LOWMEM_SCHEDULE`]: three temporaries, inputs
    /// preserved, per-level extra footprint `qa + qb + qc`.
    #[default]
    LowMem,
}

impl Schedule {
    /// Every schedule, for code that enumerates them.
    pub const ALL: [Schedule; 1] = [Schedule::LowMem];

    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Schedule::LowMem => "low-mem",
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "low-mem" | "lowmem" => Ok(Schedule::LowMem),
            other => Err(format!("unknown schedule {other:?} (expected low-mem)")),
        }
    }
}

/// Counts of the schedule's primitive operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleCounts {
    /// Recursive multiplications.
    pub muls: usize,
    /// `A`-quadrant-shaped additions.
    pub adds_a: usize,
    /// `B`-quadrant-shaped additions.
    pub adds_b: usize,
    /// `C`-quadrant-shaped additions.
    pub adds_c: usize,
}

impl ScheduleCounts {
    /// Total additions.
    pub fn adds(&self) -> usize {
        self.adds_a + self.adds_b + self.adds_c
    }
}

/// Counts multiplications and additions in a schedule.
pub fn count_ops(schedule: &[Step]) -> ScheduleCounts {
    let mut c = ScheduleCounts { muls: 0, adds_a: 0, adds_b: 0, adds_c: 0 };
    for s in schedule {
        match s {
            Mul { .. } => c.muls += 1,
            AddA { .. } => c.adds_a += 1,
            AddB { .. } => c.adds_b += 1,
            AddC { .. } => c.adds_c += 1,
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use modgemm_mat::gen::random_matrix;
    use modgemm_mat::naive::naive_product;
    use modgemm_mat::Matrix;

    const STEPS: &[Step] = &WINOGRAD_LOWMEM_SCHEDULE;

    /// Interprets a schedule symbolically over owned integer matrices —
    /// a direct executable proof that the linearization computes
    /// `C = A·B`. A/B quadrants are writable slots like the temporaries;
    /// after the run every input quadrant is asserted equal to its
    /// original value, which the executors' shared operand borrows rely
    /// on.
    fn interpret(schedule: &[Step], a: &Matrix<i64>, b: &Matrix<i64>) -> Matrix<i64> {
        let (m, k) = a.dims();
        let (_, n) = b.dims();
        assert!(m % 2 == 0 && k % 2 == 0 && n % 2 == 0);
        let (m2, k2, n2) = (m / 2, k / 2, n / 2);

        let sub = |x: &Matrix<i64>, i: usize, j: usize, r: usize, c: usize| {
            Matrix::from_fn(r, c, |ii, jj| x.get(i + ii, j + jj))
        };
        // Writable slot tables: [A11, A12, A21, A22, TS] / [B11, B12,
        // B21, B22, TT] / [C11, C12, C21, C22, TP].
        let mut asl = [
            sub(a, 0, 0, m2, k2),
            sub(a, 0, k2, m2, k2),
            sub(a, m2, 0, m2, k2),
            sub(a, m2, k2, m2, k2),
            Matrix::zeros(m2, k2),
        ];
        let originals_a = asl[..4].to_vec();
        let mut bsl = [
            sub(b, 0, 0, k2, n2),
            sub(b, 0, n2, k2, n2),
            sub(b, k2, 0, k2, n2),
            sub(b, k2, n2, k2, n2),
            Matrix::zeros(k2, n2),
        ];
        let originals_b = bsl[..4].to_vec();
        let mut cs: Vec<Matrix<i64>> = (0..5).map(|_| Matrix::zeros(m2, n2)).collect();

        let combine = |l: &Matrix<i64>, r: &Matrix<i64>, kind: AddKind| {
            Matrix::from_fn(l.rows(), l.cols(), |i, j| match kind {
                AddKind::Add => l.get(i, j) + r.get(i, j),
                AddKind::Sub => l.get(i, j) - r.get(i, j),
            })
        };

        for &step in schedule {
            match step {
                Step::AddA { dst, lhs, rhs, kind } => {
                    let v = combine(&asl[lhs.index()], &asl[rhs.index()], kind);
                    asl[dst.index()] = v;
                }
                Step::AddB { dst, lhs, rhs, kind } => {
                    let v = combine(&bsl[lhs.index()], &bsl[rhs.index()], kind);
                    bsl[dst.index()] = v;
                }
                Step::AddC { dst, lhs, rhs, kind } => {
                    let v = combine(&cs[lhs.index()], &cs[rhs.index()], kind);
                    cs[dst.index()] = v;
                }
                Step::Mul { a: sa, b: sb, dst } => {
                    let v = naive_product(&asl[sa.index()], &bsl[sb.index()]);
                    cs[dst.index()] = v;
                }
            }
        }

        // The inputs end as they started.
        for q in 0..4 {
            assert_eq!(asl[q], originals_a[q], "A quadrant {q} not restored");
            assert_eq!(bsl[q], originals_b[q], "B quadrant {q} not restored");
        }

        Matrix::from_fn(m, n, |i, j| {
            let q = match (i < m2, j < n2) {
                (true, true) => &cs[0],
                (true, false) => &cs[1],
                (false, true) => &cs[2],
                (false, false) => &cs[3],
            };
            q.get(i % m2, j % n2)
        })
    }

    #[test]
    fn winograd_schedule_computes_exact_product() {
        // Square, rectangular and minimal shapes.
        for (m, k, n, seed) in [(4, 4, 4, 1), (8, 6, 10, 2), (2, 2, 2, 3), (6, 12, 4, 4)] {
            let a: Matrix<i64> = random_matrix(m, k, seed);
            let b: Matrix<i64> = random_matrix(k, n, seed + 100);
            assert_eq!(interpret(STEPS, &a, &b), naive_product(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn lowmem_and_inplace_schedules_compute_exact_product_and_restore_inputs() {
        // `interpret` asserts that every input quadrant ends as it
        // started. Thin and wide quadrants, and entries large enough that
        // a dropped or doubled term cannot cancel out.
        for (m, k, n, seed) in [(10, 2, 6, 5), (2, 8, 2, 6), (12, 10, 14, 7)] {
            let a: Matrix<i64> = random_matrix(m, k, seed);
            let b: Matrix<i64> = random_matrix(k, n, seed + 100);
            assert_eq!(interpret(STEPS, &a, &b), naive_product(&a, &b), "{m}x{k}x{n}");
        }
        let a = Matrix::from_fn(6, 4, |i, j| ((i * 4 + j) as i64 + 1) << 20);
        let b = Matrix::from_fn(4, 8, |i, j| -(((i * 8 + j) as i64 + 1) << 10));
        assert_eq!(interpret(STEPS, &a, &b), naive_product(&a, &b));
    }

    #[test]
    fn temp_footprints_strictly_decrease_down_the_ladder() {
        use crate::exec::{workspace_len, ExecPolicy, NodeLayouts};
        use modgemm_morton::MortonLayout;
        // A staged level writes one temporary of each operand shape (TS,
        // TT, TP) besides the C quadrants, so it holds qa + qb + qc.
        let (mut ts, mut tt, mut tp) = (false, false, false);
        for &s in STEPS {
            match s {
                Step::AddA { dst, .. } => ts |= dst == ASlot::TS,
                Step::AddB { dst, .. } => tt |= dst == BSlot::TT,
                Step::AddC { dst, .. } | Step::Mul { dst, .. } => tp |= dst == CSlot::TP,
            }
        }
        assert!(ts && tt && tp);
        // qa/qb/qc deliberately distinct so a transposed term would fail.
        let node = |depth| {
            NodeLayouts::new(
                MortonLayout::new(2, 3, depth),
                MortonLayout::new(3, 5, depth),
                MortonLayout::new(2, 5, depth),
            )
        };
        assert_eq!(crate::counts::staged_level_elems(node(1)), 6 + 15 + 10);
        // The depth rung: each level the ladder drops frees its slots, so
        // the arena strictly shrinks down to zero.
        let l = node(3);
        // The node's min(m, k, n) is 16, 8, 4 down the levels.
        let lens: Vec<usize> = [0, 4, 8, 16]
            .map(|strassen_min| workspace_len(l, ExecPolicy { strassen_min, ..Default::default() }))
            .to_vec();
        assert!(lens.windows(2).all(|w| w[0] > w[1]), "{lens:?}");
        assert_eq!(lens[3], 0);
    }

    #[test]
    fn op_counts_match_the_literature() {
        // Winograd's 7 multiplies and 15 additions.
        let lm = count_ops(STEPS);
        assert_eq!((lm.muls, lm.adds()), (7, 15));
        assert_eq!((lm.adds_a, lm.adds_b, lm.adds_c), (4, 4, 7));
        assert_eq!(STEPS.len(), 22);
    }

    #[test]
    fn schedule_names_round_trip() {
        for s in Schedule::ALL {
            assert_eq!(s.name().parse::<Schedule>(), Ok(s));
            assert_eq!(format!("{s}").parse::<Schedule>(), Ok(s));
        }
        assert!("bogus".parse::<Schedule>().is_err());
        assert!("standard".parse::<Schedule>().is_err(), "the four-temporary tier is gone");
        assert!("in-place".parse::<Schedule>().is_err(), "the input-overwriting tier is gone");
        assert_eq!(Schedule::default(), Schedule::LowMem);
    }

    #[test]
    fn non_overwriting_schedules_only_write_temporaries() {
        // The schedule must never touch an input quadrant: every
        // executor borrows the operands shared.
        for &step in STEPS {
            match step {
                Step::AddA { dst, .. } => assert_eq!(dst, ASlot::TS, "writes an A quadrant"),
                Step::AddB { dst, .. } => assert_eq!(dst, BSlot::TT, "writes a B quadrant"),
                _ => {}
            }
        }
    }

    #[test]
    fn overwriting_add_steps_use_supported_alias_forms() {
        // An add whose destination is one of its operands (`TS = TS − A11`,
        // `TT = B22 − TT`) runs as an add/sub-assign (`dst == lhs`) or
        // an add-assign / reverse-subtract (`dst == rhs`); the executor
        // never needs `x = x ± x`.
        // `addc_never_fully_aliases` covers the C-shaped adds.
        for &step in STEPS {
            let (dst, lhs, rhs) = match step {
                Step::AddA { dst, lhs, rhs, .. } => (dst.index(), lhs.index(), rhs.index()),
                Step::AddB { dst, lhs, rhs, .. } => (dst.index(), lhs.index(), rhs.index()),
                _ => continue,
            };
            assert!(!(dst == lhs && dst == rhs), "fully aliased {step:?}");
        }
    }

    #[test]
    fn every_c_quadrant_is_written() {
        use std::collections::HashSet;
        let mut written: HashSet<usize> = HashSet::new();
        for s in STEPS {
            if let Step::AddC { dst, .. } | Step::Mul { dst, .. } = s {
                written.insert(dst.index());
            }
        }
        for q in 0..4 {
            assert!(written.contains(&q), "C quadrant {q} never written");
        }
    }

    #[test]
    fn muls_overwrite_before_c_quadrants_are_read() {
        // Every C slot must be written (by a Mul) before it is first read
        // by an AddC — the executor relies on never reading stale C.
        let mut written = [false; 5];
        for &s in STEPS {
            match s {
                Step::Mul { dst, .. } => written[dst.index()] = true,
                Step::AddC { dst, lhs, rhs, .. } => {
                    assert!(written[lhs.index()], "AddC reads {lhs:?}");
                    assert!(written[rhs.index()], "AddC reads {rhs:?}");
                    written[dst.index()] = true;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn mul_operands_never_alias_destination_buffers() {
        // A Mul's destination is C-shaped while its operands are A- or
        // B-shaped, so aliasing is impossible by construction; this guards
        // against future schedule edits introducing illegal slot usage.
        for s in STEPS {
            if let Step::Mul { a, b, .. } = s {
                assert!(matches!(a, ASlot::A11 | ASlot::A12 | ASlot::A21 | ASlot::A22 | ASlot::TS));
                assert!(matches!(b, BSlot::B11 | BSlot::B12 | BSlot::B21 | BSlot::B22 | BSlot::TT));
            }
        }
    }

    #[test]
    fn addc_never_fully_aliases() {
        // dst == lhs == rhs would be `x = x ± x`, which the executor's
        // assign forms do not support.
        for s in STEPS {
            if let Step::AddC { dst, lhs, rhs, .. } = s {
                assert!(!(dst == lhs && dst == rhs), "fully aliased AddC");
            }
        }
    }
}
