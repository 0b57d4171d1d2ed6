//! A pooled single GEMM runs either as a team walking the one
//! interpreter (the default, `parallel_depth: 0`) or, with an explicit
//! `parallel_depth`, as a task DAG of one item: Morton conversion chunks,
//! the compute subtree over the top `parallel_depth` Strassen levels, and
//! α/β unpack chunks. Either way it must produce the serial interpreter's
//! product **bit for bit** (same products, same kernels, same
//! associativity; only the evaluation order across independent buffers
//! changes), at any worker count and on a context whose buffers hold
//! sentinels.

mod tests {
    use crate::config::{FuseDepth, ModgemmConfig, SchedulePolicy, Truncation};
    use crate::error::GemmError;
    use crate::exec::{workspace_len, ExecPolicy, NodeLayouts};
    use crate::gemm::{capped_policy, layouts_of, GemmContext};
    use crate::metrics::{CollectingSink, MetricsSink, NoopSink};
    use crate::plan::{parallel_slab_len, GemmPlan};
    use crate::schedule::Schedule;
    use modgemm_mat::gen::random_matrix;
    use modgemm_mat::naive::naive_product;
    use modgemm_mat::view::Op;
    use modgemm_mat::{KernelKind, Matrix, Scalar};
    use modgemm_morton::convert::to_morton;
    use modgemm_morton::{MortonLayout, TileRange};

    /// The paper's fully staged pipeline on exact-fit `tile` leaves: an
    /// `n = tile << depth` problem recurses `depth` levels with no
    /// padding, and its top `par_depth` levels run on `threads` workers
    /// (`0` = the machine default).
    fn cfg(tile: usize, par_depth: usize, threads: usize) -> ModgemmConfig {
        ModgemmConfig {
            truncation: Truncation::Fixed(tile),
            fuse_depth: FuseDepth::Fixed(0),
            parallel_depth: par_depth,
            threads,
            ..ModgemmConfig::paper()
        }
    }

    fn plan<S: Scalar>(m: usize, k: usize, n: usize, cfg: &ModgemmConfig) -> GemmPlan<S> {
        GemmPlan::try_new(m, k, n, cfg).unwrap()
    }

    /// Grows `ctx` to what `plan` carves and fills the packed operand and
    /// result buffers with `c_dirt` and the workspace with `ws_dirt`: a
    /// Morton C tile the DAG never writes, or a temporary read before its
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

    fn run_par(n: usize, tile: usize, depth: usize, par_depth: usize, seed: u64) {
        assert_eq!(n, tile << depth);
        let a: Matrix<f64> = random_matrix(n, n, seed);
        let b: Matrix<f64> = random_matrix(n, n, seed + 1);
        let c_ser = run_dirty(&plan(n, n, n, &cfg(tile, par_depth, 1)), &a, &b, 0.0, 0.0);

        // The pooled DAG at several explicit worker counts, on a dirty
        // context, must be bitwise identical whatever the machine's own
        // parallelism.
        for threads in [2, 3, 7] {
            let p = plan(n, n, n, &cfg(tile, par_depth, threads));
            assert_eq!(p.parallel_depth() > 0, par_depth > 0, "threads = {threads}");
            assert_eq!(p.parallel_tasks() > 0, par_depth > 0, "threads = {threads}");
            let c_pool = run_dirty(&p, &a, &b, f64::NAN, f64::NAN);
            assert_eq!(c_pool, c_ser, "n = {n} par_depth = {par_depth} threads = {threads}");
        }
        modgemm_mat::norms::assert_matrix_eq(c_ser.view(), naive_product(&a, &b).view(), n);
    }

    #[test]
    fn one_parallel_level() {
        run_par(64, 8, 3, 1, 1);
    }

    #[test]
    fn two_parallel_levels() {
        run_par(96, 12, 3, 2, 2);
    }

    #[test]
    fn par_depth_exceeding_recursion_depth() {
        run_par(32, 8, 2, 5, 3);
    }

    #[test]
    fn par_depth_zero_is_serial() {
        run_par(32, 8, 2, 0, 4);
    }

    #[test]
    fn parallel_packed_kernel_matches_serial_and_reports_it() {
        let n = 64; // 16 << 2
        let packed =
            |threads| ModgemmConfig { leaf_kernel: KernelKind::Packed, ..cfg(16, 1, threads) };
        let a: Matrix<f64> = random_matrix(n, n, 51);
        let b: Matrix<f64> = random_matrix(n, n, 52);

        // Each worker's slab share carries its own packing slot, so the
        // pooled run must be bitwise identical to the serial one.
        let pooled = plan(n, n, n, &packed(2));
        assert_eq!(pooled.parallel_depth(), 1);
        let mut ctx = GemmContext::new();
        soil(&mut ctx, &pooled, f64::NAN, f64::NAN);
        let mut sink = CollectingSink::new();
        let c_par = exec(&pooled, &a, &b, &mut ctx, f64::NAN, &mut sink).unwrap();
        let c_ser = run_dirty(&plan(n, n, n, &packed(1)), &a, &b, 0.0, 0.0);
        assert_eq!(c_par, c_ser);

        let m = sink.into_metrics();
        let policy = ExecPolicy { kernel: KernelKind::Packed, ..Default::default() };
        assert_eq!(m.kernel_selected, Some(KernelKind::Packed));
        assert_eq!(m.bytes_packed, crate::counts::packed_bytes(square(16, 2), policy, 8));
        assert!(m.bytes_packed > 0);
        assert!(m.pool.is_some(), "the pooled run reports pool counters");
    }

    #[test]
    fn pooled_parallel_with_fused_leaves_matches_staged_serial() {
        // Depth 3 with fuse 1 leaves two *staged* levels, both lowered to
        // the DAG (par-depth 2); each Leaf task then runs a fused
        // subtree. The
        // pooled run must agree bit-for-bit (i64) with both the serial
        // fused plan and the fully staged oracle, at every worker count —
        // this is the test the TSan job drives to race-check fused
        // execution under real concurrency.
        let n = 64; // 8 << 3
        let staged = |par_depth, threads| ModgemmConfig {
            leaf_kernel: KernelKind::Packed,
            ..cfg(8, par_depth, threads)
        };
        let fused = |par_depth, threads| ModgemmConfig {
            fuse_depth: FuseDepth::Fixed(1),
            ..staged(par_depth, threads)
        };
        let a: Matrix<i64> = random_matrix(n, n, 61);
        let b: Matrix<i64> = random_matrix(n, n, 62);
        let c_oracle = run_dirty(&plan(n, n, n, &staged(0, 1)), &a, &b, 0, 0);
        let c_fused = run_dirty(&plan(n, n, n, &fused(0, 1)), &a, &b, 0, 0);
        assert_eq!(c_fused, c_oracle, "serial fused vs staged oracle");

        for threads in [2, 4] {
            let p = plan(n, n, n, &fused(2, threads));
            assert_eq!((p.parallel_depth(), p.fused_levels()), (2, 1));
            let c_pool = run_dirty(&p, &a, &b, i64::MAX, i64::MAX);
            assert_eq!(c_pool, c_oracle, "threads = {threads}");
        }
    }

    #[test]
    fn every_tier_pooled_is_bitwise_serial_and_restores_inputs() {
        // The in-place tier's leaf subtrees write and then restore their
        // packed A/B quadrants while sibling tasks run; the DAG's SPre/TPre
        // edges must order every other reader first.
        let n = 32; // 4 << 3
        let a: Matrix<i64> = random_matrix(n, n, 71);
        let b: Matrix<i64> = random_matrix(n, n, 72);
        let expect = naive_product(&a, &b);
        for schedule in Schedule::ALL {
            let tier = |threads| ModgemmConfig {
                schedule: SchedulePolicy::Fixed(schedule),
                ..cfg(4, 2, threads)
            };
            let layouts = layouts_of(&tier(1).plan(n, n, n).unwrap());
            let mut ab = vec![0; layouts.a.len()];
            let mut bb = vec![0; layouts.b.len()];
            to_morton(a.view(), Op::NoTrans, &layouts.a, &mut ab);
            to_morton(b.view(), Op::NoTrans, &layouts.b, &mut bb);
            let c_ser = run_dirty(&plan(n, n, n, &tier(1)), &a, &b, 0, 0);
            assert_eq!(c_ser, expect, "{schedule}");
            for threads in [2, 5] {
                let p = plan(n, n, n, &tier(threads));
                assert_eq!((p.parallel_depth(), p.schedule()), (2, schedule));
                let mut ctx = GemmContext::new();
                soil(&mut ctx, &p, i64::MIN, i64::MAX);
                let c = exec(&p, &a, &b, &mut ctx, i64::MIN, &mut NoopSink).unwrap();
                assert_eq!(c, c_ser, "{schedule} threads = {threads}");
                assert!(
                    ctx.a_buf[..ab.len()] == ab[..] && ctx.b_buf[..bb.len()] == bb[..],
                    "{schedule}: packed operands not restored"
                );
            }
        }
    }

    #[test]
    fn every_kernel_pooled_on_dirty_buffers_is_bitwise_serial() {
        // Morton C (and the packed operands) start as i64::MIN and the
        // slab as i64::MAX on every pooled run: a C quadrant the DAG
        // never writes, or a temporary read before its producer ran,
        // leaves a sentinel-sized error behind. The ragged shape pads,
        // so its convert chunks must zero the pad.
        let ragged = ModgemmConfig {
            truncation: Truncation::MinPadding(TileRange::new(3, 6)),
            ..cfg(1, 2, 1)
        };
        for ((m, k, n), base) in
            [((32, 32, 32), cfg(4, 2, 1)), ((20, 20, 20), cfg(5, 1, 1)), ((11, 19, 14), ragged)]
        {
            let a: Matrix<i64> = random_matrix(m, k, 81);
            let b: Matrix<i64> = random_matrix(k, n, 82);
            for kernel in KernelKind::ALL {
                let at = |threads| ModgemmConfig { leaf_kernel: kernel, threads, ..base };
                let c_ser = run_dirty(&plan(m, k, n, &at(1)), &a, &b, 0, 0);
                assert_eq!(c_ser, naive_product(&a, &b), "{kernel:?} {m}x{k}x{n}");
                for threads in [2, 3, 7] {
                    let p = plan(m, k, n, &at(threads));
                    assert!(p.parallel_depth() > 0, "{kernel:?} {m}x{k}x{n}");
                    let c_pool = run_dirty(&p, &a, &b, i64::MIN, i64::MAX);
                    assert_eq!(c_pool, c_ser, "{kernel:?} {m}x{k}x{n} threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn try_parallel_reports_buffer_mismatch() {
        // A pooled plan takes only operands of its own shape, rejected
        // typed before any buffer or output is touched.
        let p = plan::<f64>(16, 16, 16, &cfg(4, 1, 2));
        assert!(p.parallel_depth() > 0);
        let mut ctx = GemmContext::new();
        let a: Matrix<f64> = Matrix::zeros(16, 16);
        let b: Matrix<f64> = Matrix::zeros(19, 16);
        assert_eq!(
            exec(&p, &a, &b, &mut ctx, f64::NAN, &mut NoopSink),
            Err(GemmError::InnerDimMismatch { a_cols: 16, b_rows: 19 })
        );
        let small: Matrix<f64> = Matrix::zeros(8, 8);
        assert_eq!(
            exec(&p, &small, &small, &mut ctx, f64::NAN, &mut NoopSink),
            Err(GemmError::PlanShapeMismatch { planned: (16, 16, 16), got: (8, 8, 8) })
        );
        assert_eq!(ctx.footprint(), 0, "a rejected call must not size the context");
    }

    #[test]
    fn dirty_oversized_slab_matches_a_clean_one() {
        let n = 32; // 8 << 2
        let p = plan::<f64>(n, n, n, &cfg(8, 1, 2));
        let layouts = square(8, 2);
        let policy = capped_policy::<f64>(layouts, p.config());
        assert_eq!(p.arena_len(), parallel_slab_len(layouts, policy, 1));
        let a: Matrix<f64> = random_matrix(n, n, 41);
        let b: Matrix<f64> = random_matrix(n, n, 42);
        let clean = exec(&p, &a, &b, &mut GemmContext::new(), 0.0, &mut NoopSink).unwrap();

        // Every temporary is fully written before it is read, so a dirty,
        // oversized slab gives the bitwise result.
        let mut ctx = GemmContext::new();
        soil(&mut ctx, &p, f64::NAN, f64::NAN);
        ctx.ws = vec![f64::NAN; p.arena_len() + 13];
        assert_eq!(exec(&p, &a, &b, &mut ctx, f64::NAN, &mut NoopSink).unwrap(), clean);
    }

    #[test]
    fn slab_model_matches_legacy_temp_total() {
        // The slab is exactly the sum the old per-node `vec!` temporaries
        // added up to: 4qa + 4qb + 3qc per parallel Winograd level, times 7
        // per child, plus one serial workspace per handover subtree.
        let l = MortonLayout::new(8, 8, 3);
        let layouts = NodeLayouts::new(l, l, l);
        let policy = ExecPolicy::default();
        let (qa, qb, qc) = (l.quadrant_len(), l.quadrant_len(), l.quadrant_len());
        let per_node = 4 * qa + 4 * qb + 3 * qc;
        let child = layouts.child();
        let expect = per_node + 7 * (workspace_len(child, policy));
        assert_eq!(parallel_slab_len(layouts, policy, 1), expect);
        // Handover cases degenerate to the serial workspace.
        assert_eq!(parallel_slab_len(layouts, policy, 0), workspace_len(layouts, policy));
    }

    #[test]
    fn try_parallel_succeeds_and_matches_serial() {
        // The machine-default worker count (`MODGEMM_THREADS` or the CPU
        // count): pooled when it resolves to two or more, serial otherwise.
        let n = 32; // 8 << 2
        let a: Matrix<f64> = random_matrix(n, n, 21);
        let b: Matrix<f64> = random_matrix(n, n, 22);
        let c_par = run_dirty(&plan(n, n, n, &cfg(8, 1, 0)), &a, &b, f64::NAN, f64::NAN);
        let c_ser = run_dirty(&plan(n, n, n, &cfg(8, 1, 1)), &a, &b, 0.0, 0.0);
        assert_eq!(c_par, c_ser);
    }

    #[test]
    fn integers_stay_exact_in_parallel() {
        let n = 32; // 4 << 3
        let a: Matrix<i64> = random_matrix(n, n, 9);
        let b: Matrix<i64> = random_matrix(n, n, 10);
        let c = run_dirty(&plan(n, n, n, &cfg(4, 2, 0)), &a, &b, i64::MIN, i64::MAX);
        assert_eq!(c, naive_product(&a, &b));

        // Pooled DAG execution stays exact (and bitwise serial-equal) at a
        // worker count well above one level's task count.
        let c_pool = run_dirty(&plan(n, n, n, &cfg(4, 2, 16)), &a, &b, i64::MIN, i64::MAX);
        assert_eq!(c_pool, c);
    }
    /// `C ← α·A·B + β·C` through `cfg` at every team size, each run on a
    /// context whose Morton buffers and arena hold `dirt`, against the
    /// one-thread run. Checks that each plan's team is the worker count.
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
            assert_eq!(p.tiled().map(|tp| tp.team), Some(threads), "{m}x{k}x{n} {cfg:?}");
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
        // Both tiers (the planned path owns its Morton buffers, so the
        // in-place tier runs there), both fuse depths and every concrete
        // kernel, on 33-wide ragged leaves: 513³ for the packed kernel,
        // 264³ for the other two, and a rectangle whose Strassen recursion
        // stops above the leaves (`strassen_min`), so conventional levels
        // sit below the terminal and the team splits it by C
        // sub-quadrant.
        let tiers = [SchedulePolicy::Auto, SchedulePolicy::Fixed(Schedule::InPlace)]
            .map(|schedule| ModgemmConfig { schedule, ..ModgemmConfig::default() });
        for (t, base) in tiers.into_iter().enumerate() {
            for fuse in [0, 1] {
                let at = |leaf_kernel| ModgemmConfig {
                    leaf_kernel,
                    fuse_depth: FuseDepth::Fixed(fuse),
                    ..base
                };
                let packed = at(KernelKind::Packed);
                team_case((513, 513, 513), packed, (1.5f64, -0.5), f64::NAN);
                team_case((513, 513, 513), packed, (3i64, -2), i64::MIN);
                // The non-packing kernels alternate the scalar by tier.
                for kernel in [KernelKind::Blocked, KernelKind::Naive] {
                    if t == 0 {
                        team_case((264, 264, 264), at(kernel), (1.5f64, -0.5), f64::NAN);
                    } else {
                        team_case((264, 264, 264), at(kernel), (3i64, -2), i64::MIN);
                    }
                }
                let cut = ModgemmConfig { strassen_min: 100, ..at(KernelKind::Packed) };
                team_case((330, 200, 270), cut, (1.5f64, -0.5), f64::NAN);
                let cut = ModgemmConfig { strassen_min: 100, ..at(KernelKind::Blocked) };
                team_case((330, 200, 270), cut, (3i64, -2), i64::MIN);
            }
        }
    }

    #[test]
    fn team_arena_is_the_serial_arena_plus_leaf_buffers() {
        // The team's only memory beyond the serial arena: one terminal
        // tail per extra rank and the deepest staged level's second
        // temporaries (low-mem tier only), carved after the arena.
        let cfg =
            |threads, memory_budget| ModgemmConfig { threads, memory_budget, ..Default::default() };
        let unlimited = crate::config::MemoryBudget::Unlimited;
        let one = plan::<f64>(1000, 1000, 1000, &cfg(1, unlimited));
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
