//! A pooled single GEMM runs as a team walking the one interpreter,
//! each rank doing a disjoint output share of every step; a batch runs as
//! a task DAG whose items each run the serial interpreter in their own
//! window slot. Either way it must produce the serial interpreter's
//! product **bit for bit** (same products, same kernels, same
//! associativity; only the evaluation order across independent buffers
//! changes), at any worker count and on a context whose buffers hold
//! sentinels.

mod tests {
    use crate::batch::{BatchPlan, StridedBatch};
    use crate::config::{FuseDepth, ModgemmConfig, Truncation};
    use crate::error::GemmError;
    use crate::exec::{ExecPolicy, NodeLayouts};
    use crate::gemm::GemmContext;
    use crate::metrics::{CollectingSink, MetricsSink, NoopSink};
    use crate::plan::GemmPlan;
    use modgemm_mat::gen::random_matrix;
    use modgemm_mat::naive::naive_product;
    use modgemm_mat::view::Op;
    use modgemm_mat::{KernelKind, Matrix, Scalar};
    use modgemm_morton::{MortonLayout, TileRange};

    /// The paper's fully staged pipeline on exact-fit `tile` leaves (an
    /// `n = tile << depth` problem recurses `depth` levels with no
    /// padding) on `threads` workers (`0` = the machine default).
    fn cfg(tile: usize, threads: usize) -> ModgemmConfig {
        ModgemmConfig {
            truncation: Truncation::Fixed(tile),
            fuse_depth: FuseDepth::Staged,
            threads,
            ..ModgemmConfig::paper()
        }
    }

    /// 320 = 40 << 3: three exact-fit levels, above the team crossover.
    const TEAM_N: usize = 320;
    const TEAM_TILE: usize = 40;

    fn plan<S: Scalar>(m: usize, k: usize, n: usize, cfg: &ModgemmConfig) -> GemmPlan<S> {
        GemmPlan::try_new(m, k, n, cfg).unwrap()
    }

    /// Grows `ctx` to what `plan` carves and fills the packed operand and
    /// result buffers with `c_dirt` and the workspace with `ws_dirt`: a
    /// Morton C tile no rank writes, or a temporary read before its
    /// producer ran, leaves a sentinel-sized error behind.
    fn soil<S: Scalar>(ctx: &mut GemmContext<S>, plan: &GemmPlan<S>, c_dirt: S, ws_dirt: S) {
        let (m, k, n) = plan.dims();
        ctx.try_reserve_for(m, k, n, plan.config()).unwrap();
        for buf in [&mut ctx.a_buf, &mut ctx.b_buf, &mut ctx.c_buf] {
            buf.fill(c_dirt);
        }
        ctx.ws.fill(ws_dirt);
    }

    /// `C = A·B` through `plan` on `ctx`, into an output holding `c_dirt`
    /// (β = 0 never reads it), reporting through `sink`.
    fn exec<S: Scalar, K: MetricsSink>(
        plan: &GemmPlan<S>,
        a: &Matrix<S>,
        b: &Matrix<S>,
        ctx: &mut GemmContext<S>,
        c_dirt: S,
        sink: &mut K,
    ) -> Result<Matrix<S>, GemmError> {
        let mut c = Matrix::from_fn(a.rows(), b.cols(), |_, _| c_dirt);
        plan.try_execute_with_metrics(
            S::ONE,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            S::ZERO,
            c.view_mut(),
            ctx,
            sink,
        )?;
        Ok(c)
    }

    /// Runs `plan` on a freshly soiled context.
    fn run_dirty<S: Scalar>(
        plan: &GemmPlan<S>,
        a: &Matrix<S>,
        b: &Matrix<S>,
        c_dirt: S,
        ws_dirt: S,
    ) -> Matrix<S> {
        let mut ctx = GemmContext::new();
        soil(&mut ctx, plan, c_dirt, ws_dirt);
        exec(plan, a, b, &mut ctx, c_dirt, &mut NoopSink).unwrap()
    }

    fn square(tile: usize, depth: usize) -> NodeLayouts {
        let l = MortonLayout::new(tile, tile, depth);
        NodeLayouts::new(l, l, l)
    }

    /// `items` products `C_i = A_i·B_i` of one `m × k × n` shape through a
    /// [`BatchPlan`] under `cfg` (the task DAG), on a context whose packed
    /// window slots and item arenas all hold `dirt`. Returns the outputs
    /// side by side as one `m × (items·n)` matrix.
    fn run_batch<S: Scalar>(
        (m, k, n): (usize, usize, usize),
        items: usize,
        cfg: &ModgemmConfig,
        a: &Matrix<S>,
        b: &Matrix<S>,
        dirt: S,
    ) -> Matrix<S> {
        let bplan: BatchPlan<S> = BatchPlan::try_new(m, k, n, items, cfg).unwrap();
        assert!(bplan.parallel_tasks() > 0, "{m}x{k}x{n} {cfg:?} must run the batch DAG");
        let tp = bplan.item_plan().tiled().unwrap();
        let w = bplan.window();
        let mut ctx = GemmContext::new();
        ctx.a_buf = vec![dirt; w * tp.layouts.a.len()];
        ctx.b_buf = vec![dirt; w * tp.layouts.b.len()];
        ctx.c_buf = vec![dirt; w * tp.layouts.c.len()];
        ctx.ws = vec![dirt; w * tp.arena_len];
        let mut c = Matrix::from_fn(m, items * n, |_, _| dirt);
        let desc = StridedBatch {
            alpha: S::ONE,
            op_a: Op::NoTrans,
            a: a.as_slice(),
            lda: m,
            stride_a: m * k,
            op_b: Op::NoTrans,
            b: b.as_slice(),
            ldb: k,
            stride_b: k * n,
            beta: S::ZERO,
            ldc: m,
            stride_c: m * n,
        };
        bplan.try_execute(&desc, c.as_mut_slice(), &mut ctx).unwrap();
        c
    }

    /// [`run_batch`] at several worker counts against the serial per-item
    /// products of `cfg` on one thread, item by item.
    fn batch_case<S: Scalar>(
        (m, k, n): (usize, usize, usize),
        cfg: ModgemmConfig,
        threads: &[usize],
        dirt: S,
    ) {
        let items = 3;
        let a: Matrix<S> = random_matrix(m, items * k, 81);
        let b: Matrix<S> = random_matrix(k, items * n, 82);
        let serial = plan::<S>(m, k, n, &ModgemmConfig { threads: 1, ..cfg });
        let mut want = Matrix::zeros(m, items * n);
        for i in 0..items {
            let ai = Matrix::from_fn(m, k, |r, c| a.get(r, i * k + c));
            let bi = Matrix::from_fn(k, n, |r, c| b.get(r, i * n + c));
            let ci = run_dirty(&serial, &ai, &bi, S::ZERO, S::ZERO);
            want.view_mut().submatrix_mut(0, i * n, m, n).copy_from(ci.view());
        }
        for &t in threads {
            let got =
                run_batch((m, k, n), items, &ModgemmConfig { threads: t, ..cfg }, &a, &b, dirt);
            assert!(got == want, "{m}x{k}x{n} threads = {t} {cfg:?}");
        }
    }

    #[test]
    fn parallel_packed_kernel_matches_serial_and_reports_it() {
        let n = TEAM_N;
        let packed =
            |threads| ModgemmConfig { leaf_kernel: KernelKind::Packed, ..cfg(TEAM_TILE, threads) };
        let a: Matrix<f64> = random_matrix(n, n, 51);
        let b: Matrix<f64> = random_matrix(n, n, 52);

        // Each rank packs into its own terminal tail, so the team run must
        // be bitwise identical to the serial one.
        let pooled = plan(n, n, n, &packed(2));
        assert_eq!(pooled.tiled().unwrap().team, 2);
        let mut ctx = GemmContext::new();
        soil(&mut ctx, &pooled, f64::NAN, f64::NAN);
        let mut sink = CollectingSink::new();
        let c_par = exec(&pooled, &a, &b, &mut ctx, f64::NAN, &mut sink).unwrap();
        let c_ser = run_dirty(&plan(n, n, n, &packed(1)), &a, &b, 0.0, 0.0);
        assert_eq!(c_par, c_ser);

        let m = sink.into_metrics();
        let policy = ExecPolicy { kernel: KernelKind::Packed, ..Default::default() };
        assert_eq!(m.kernel_selected, Some(KernelKind::Packed));
        assert_eq!(pooled.tiled().unwrap().driver.shape(), (0, 1));
        assert_eq!(
            m.bytes_packed,
            crate::counts::packed_bytes(square(TEAM_TILE, 3), policy, (0, 1), 8)
        );
        assert!(m.bytes_packed > 0);

        // A budget-shaped plan (513³ at `strassen_min: 0` under a quarter
        // of its arena): one fused level over 8 × 8 conventional tiles on
        // a team of two, two tile columns per packed B panel. The team
        // reports the serial packing model of that plan.
        let budgeted = budget_quarter_cfg(513, 2);
        let p = plan::<f64>(513, 513, 513, &budgeted);
        let tp = p.tiled().unwrap();
        assert_eq!((tp.team, tp.driver.shape(), p.fused_levels()), (2, (3, 2), 1));
        let a: Matrix<f64> = random_matrix(513, 513, 53);
        let b: Matrix<f64> = random_matrix(513, 513, 54);
        let mut sink = CollectingSink::new();
        exec(&p, &a, &b, &mut GemmContext::new(), 0.0, &mut sink).unwrap();
        let m = sink.into_metrics();
        let want = crate::counts::packed_bytes(tp.layouts, tp.policy, (3, 2), 8);
        assert_eq!(m.bytes_packed, want);
        let per_tile = 7 * 8 * 8 * 8 * KernelKind::Packed.pack_len(33, 33, 33) as u64 * 8;
        assert!(want < per_tile / 3, "the driver packs well under a third of the per-tile loop");
    }

    /// The default at the paper's depth (`strassen_min: 0`) on `threads`
    /// workers under a quarter of that plan's arena at `n³` — the e2e
    /// `blas_budget` sizing, over plans that take Strassen levels.
    fn budget_quarter_cfg(n: usize, threads: usize) -> ModgemmConfig {
        let deep = ModgemmConfig { strassen_min: 0, ..ModgemmConfig::default() };
        let free = plan::<f64>(n, n, n, &deep).arena_len();
        ModgemmConfig {
            memory_budget: crate::config::MemoryBudget::MaxWorkspaceBytes(free * 8 / 4),
            threads,
            ..deep
        }
    }

    #[test]
    fn pooled_parallel_with_fused_leaves_matches_staged_serial() {
        // Depth 3 with fuse 1 leaves two *staged* levels above one fused
        // level. A team walks the staged levels with every rank, then
        // runs its share of the fused terminal; a batch's item tasks run
        // the whole fused plan on workers. Both must agree bit-for-bit
        // (i64) with the serial fused plan and the fully staged oracle at
        // every worker count — this is the test the TSan job drives to
        // race-check fused execution under real concurrency.
        let staged =
            |tile, threads| ModgemmConfig { leaf_kernel: KernelKind::Packed, ..cfg(tile, threads) };
        let fused =
            |tile, threads| ModgemmConfig { fuse_depth: FuseDepth::Fused, ..staged(tile, threads) };
        let n = TEAM_N;
        let a: Matrix<i64> = random_matrix(n, n, 61);
        let b: Matrix<i64> = random_matrix(n, n, 62);
        let c_oracle = run_dirty(&plan(n, n, n, &staged(TEAM_TILE, 1)), &a, &b, 0, 0);
        let c_fused = run_dirty(&plan(n, n, n, &fused(TEAM_TILE, 1)), &a, &b, 0, 0);
        assert_eq!(c_fused, c_oracle, "serial fused vs staged oracle");
        for threads in [2, 4] {
            let p = plan(n, n, n, &fused(TEAM_TILE, threads));
            assert_eq!((p.tiled().unwrap().team, p.fused_levels()), (threads, 1));
            let c_pool = run_dirty(&p, &a, &b, i64::MAX, i64::MAX);
            assert_eq!(c_pool, c_oracle, "team of {threads}");
        }
        // 64 = 8 << 3 on the batch DAG.
        batch_case((64, 64, 64), fused(8, 1), &[2, 4], i64::MAX);
    }

    #[test]
    fn every_kernel_pooled_on_dirty_buffers_is_bitwise_serial() {
        // The batch DAG's packed window slots, results and item arenas
        // start as i64::MIN on every run: a C tile no task writes, or a
        // temporary read before its producer ran, leaves a
        // sentinel-sized error behind. The ragged shape pads, so its
        // convert chunks must zero the pad. (The team's counterpart is
        // `team_is_bitwise_serial_at_every_team_size`.)
        let ragged =
            ModgemmConfig { truncation: Truncation::MinPadding(TileRange::new(3, 6)), ..cfg(1, 1) };
        for (shape, base) in
            [((32, 32, 32), cfg(4, 1)), ((20, 20, 20), cfg(5, 1)), ((11, 19, 14), ragged)]
        {
            for kernel in KernelKind::ALL {
                let at = ModgemmConfig { leaf_kernel: kernel, ..base };
                batch_case(shape, at, &[2, 3, 7], i64::MIN);
            }
        }
    }

    #[test]
    fn try_parallel_reports_buffer_mismatch() {
        // A team plan takes only operands of its own shape, rejected
        // typed before any buffer or output is touched.
        let n = TEAM_N;
        let p = plan::<f64>(n, n, n, &cfg(TEAM_TILE, 2));
        assert_eq!(p.tiled().unwrap().team, 2);
        let mut ctx = GemmContext::new();
        let a: Matrix<f64> = Matrix::zeros(n, n);
        let b: Matrix<f64> = Matrix::zeros(19, n);
        assert_eq!(
            exec(&p, &a, &b, &mut ctx, f64::NAN, &mut NoopSink),
            Err(GemmError::InnerDimMismatch { a_cols: n, b_rows: 19 })
        );
        let small: Matrix<f64> = Matrix::zeros(8, 8);
        assert_eq!(
            exec(&p, &small, &small, &mut ctx, f64::NAN, &mut NoopSink),
            Err(GemmError::PlanShapeMismatch { planned: (n, n, n), got: (8, 8, 8) })
        );
        assert_eq!(ctx.footprint(), 0, "a rejected call must not size the context");
    }

    #[test]
    fn dirty_oversized_slab_matches_a_clean_one() {
        let n = TEAM_N;
        let p = plan::<f64>(n, n, n, &cfg(TEAM_TILE, 2));
        let tp = p.tiled().unwrap();
        assert!(tp.team == 2 && tp.ws_len() > p.arena_len(), "the team carves tails");
        let a: Matrix<f64> = random_matrix(n, n, 41);
        let b: Matrix<f64> = random_matrix(n, n, 42);
        let clean = exec(&p, &a, &b, &mut GemmContext::new(), 0.0, &mut NoopSink).unwrap();

        // Every temporary and tail is fully written before it is read, so
        // a dirty, oversized workspace gives the bitwise result.
        let mut ctx = GemmContext::new();
        soil(&mut ctx, &p, f64::NAN, f64::NAN);
        ctx.ws = vec![f64::NAN; tp.ws_len() + 13];
        assert_eq!(exec(&p, &a, &b, &mut ctx, f64::NAN, &mut NoopSink).unwrap(), clean);
    }

    #[test]
    fn try_parallel_succeeds_and_matches_serial() {
        // The machine-default worker count (`MODGEMM_THREADS` or the CPU
        // count): a team when it resolves to two or more, serial
        // otherwise.
        let n = TEAM_N;
        let a: Matrix<f64> = random_matrix(n, n, 21);
        let b: Matrix<f64> = random_matrix(n, n, 22);
        let c_par = run_dirty(&plan(n, n, n, &cfg(TEAM_TILE, 0)), &a, &b, f64::NAN, f64::NAN);
        let c_ser = run_dirty(&plan(n, n, n, &cfg(TEAM_TILE, 1)), &a, &b, 0.0, 0.0);
        assert_eq!(c_par, c_ser);
    }

    #[test]
    fn integers_stay_exact_in_parallel() {
        let n = TEAM_N;
        let a: Matrix<i64> = random_matrix(n, n, 9);
        let b: Matrix<i64> = random_matrix(n, n, 10);
        let c = run_dirty(&plan(n, n, n, &cfg(TEAM_TILE, 0)), &a, &b, i64::MIN, i64::MAX);
        assert_eq!(c, naive_product(&a, &b));

        // A team of eight on a machine with fewer cores stays exact, and
        // so does a batch DAG with more workers than its tasks need.
        let c_team = run_dirty(&plan(n, n, n, &cfg(TEAM_TILE, 8)), &a, &b, i64::MIN, i64::MAX);
        assert_eq!(c_team, c);
        batch_case((32, 32, 32), cfg(4, 1), &[16], i64::MIN);
    }

    /// `C ← α·A·B + β·C` through `cfg` at every team size, each run on a
    /// context whose Morton buffers and arena hold `dirt`, against the
    /// one-thread run. Checks that each plan's team is the worker count,
    /// or under a memory budget the most ranks (at least two) it holds.
    fn team_case<S: Scalar>(
        (m, k, n): (usize, usize, usize),
        cfg: ModgemmConfig,
        (alpha, beta): (S, S),
        dirt: S,
    ) {
        let a: Matrix<S> = random_matrix(m, k, 91);
        let b: Matrix<S> = random_matrix(k, n, 92);
        let c0: Matrix<S> = random_matrix(m, n, 93);
        let run = |threads: usize| {
            let p = plan::<S>(m, k, n, &ModgemmConfig { threads, ..cfg });
            let team = p.tiled().unwrap().team;
            if cfg.memory_budget == crate::config::MemoryBudget::Unlimited {
                assert_eq!(team, threads, "{m}x{k}x{n} {cfg:?}");
            } else {
                assert!((threads.min(2)..=threads).contains(&team), "{m}x{k}x{n} {cfg:?}");
            }
            let mut ctx = GemmContext::new();
            soil(&mut ctx, &p, dirt, dirt);
            let mut c = c0.clone();
            let (va, vb) = (a.view(), b.view());
            p.try_execute(alpha, Op::NoTrans, va, Op::NoTrans, vb, beta, c.view_mut(), &mut ctx)
                .unwrap();
            c
        };
        let c_ser = run(1);
        for threads in [2, 3, 4, 7] {
            assert!(run(threads) == c_ser, "{m}x{k}x{n} threads = {threads} {cfg:?}");
        }
    }

    #[test]
    fn team_is_bitwise_serial_at_every_team_size() {
        // Both fuse depths and every concrete kernel, on 33-wide ragged
        // leaves: 513³ for the packed kernel, 264³ for the other two, and
        // a rectangle whose Strassen recursion stops above the leaves
        // (`strassen_min`), so conventional levels sit below the terminal
        // and the team splits it by C sub-quadrant.
        for fuse_depth in [FuseDepth::Staged, FuseDepth::Fused] {
            let at = |leaf_kernel| ModgemmConfig {
                strassen_min: 0,
                leaf_kernel,
                fuse_depth,
                ..ModgemmConfig::default()
            };
            let packed = at(KernelKind::Packed);
            assert_eq!(plan::<f64>(513, 513, 513, &packed).strassen_levels(), 4);
            team_case((513, 513, 513), packed, (1.5f64, -0.5), f64::NAN);
            team_case((513, 513, 513), packed, (3i64, -2), i64::MIN);
            for kernel in [KernelKind::Blocked, KernelKind::Naive] {
                team_case((264, 264, 264), at(kernel), (1.5f64, -0.5), f64::NAN);
                team_case((264, 264, 264), at(kernel), (3i64, -2), i64::MIN);
            }
            let cut = ModgemmConfig { strassen_min: 100, ..at(KernelKind::Packed) };
            team_case((330, 200, 270), cut, (1.5f64, -0.5), f64::NAN);
            let cut = ModgemmConfig { strassen_min: 100, ..at(KernelKind::Blocked) };
            team_case((330, 200, 270), cut, (3i64, -2), i64::MIN);
        }
        // The blas_budget shape at the paper's depth: 513³ under a quarter
        // of its arena runs one fused level over 8 × 8 conventional tiles
        // on the packed terminal. Two ranks take two tile columns per B
        // panel, three (the most the budget holds, also at 4 and 7
        // workers) one, and the one-thread run six.
        team_case((513, 513, 513), budget_quarter_cfg(513, 0), (1.5f64, -0.5), f64::NAN);
    }

    #[test]
    fn team_arena_is_the_serial_arena_plus_leaf_buffers() {
        // The team's only memory beyond the serial arena: one terminal
        // tail per extra rank and the deepest staged level's second
        // temporaries, carved after the arena.
        let cfg = |threads, memory_budget| ModgemmConfig {
            strassen_min: 0,
            threads,
            memory_budget,
            ..Default::default()
        };
        let unlimited = crate::config::MemoryBudget::Unlimited;
        let one = plan::<f64>(1000, 1000, 1000, &cfg(1, unlimited));
        assert!(one.strassen_levels() >= 1);
        let tp1 = one.tiled().unwrap();
        assert_eq!(tp1.ws_len(), one.arena_len());
        let paired = crate::plan::paired_len(tp1.layouts, tp1.policy);
        assert!(paired > 0);
        for threads in [2usize, 4] {
            let p = plan::<f64>(1000, 1000, 1000, &cfg(threads, unlimited));
            let tp = p.tiled().unwrap();
            assert_eq!((tp.policy, tp.team, p.arena_len()), (tp1.policy, threads, one.arena_len()));
            assert_eq!(tp.ws_len(), one.arena_len() + (threads - 1) * tp.tail_len + paired);
        }
        // Under a budget the team shrinks before any Strassen level goes.
        let budget =
            |elems: usize| cfg(4, crate::config::MemoryBudget::MaxWorkspaceBytes(elems * 8));
        let p = plan::<f64>(1000, 1000, 1000, &budget(one.arena_len()));
        assert_eq!((p.tiled().unwrap().team, p.strassen_levels()), (1, one.strassen_levels()));
        let two = one.arena_len() + tp1.tail_len + paired;
        let p = plan::<f64>(1000, 1000, 1000, &budget(two));
        assert_eq!((p.tiled().unwrap().team, p.strassen_levels()), (2, one.strassen_levels()));
        assert_eq!(p.tiled().unwrap().ws_len(), two);
    }
}
