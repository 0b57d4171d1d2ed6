//! The compute stage on the work-stealing pool: a compiled
//! `TiledPlan` whose task DAG runs the top `parallel_depth` Strassen
//! levels must produce the serial interpreter's product **bit for bit**
//! (same products, same kernels, same associativity; only the evaluation
//! order across independent buffers changes), at any worker count and on
//! a dirty slab.

mod tests {
    use crate::config::ModgemmConfig;
    use crate::error::{GemmError, Operand};
    use crate::exec::{workspace_len, ExecPolicy, NodeLayouts};
    use crate::metrics::{CollectingSink, MetricsSink, NoopSink};
    use crate::plan::{parallel_slab_len, Operands, TiledPlan};
    use crate::pool::PoolScratch;
    use crate::schedule::Schedule;
    use modgemm_mat::gen::random_matrix;
    use modgemm_mat::naive::naive_product;
    use modgemm_mat::view::Op;
    use modgemm_mat::{KernelKind, Matrix, Scalar};
    use modgemm_morton::convert::{from_morton, to_morton};
    use modgemm_morton::MortonLayout;

    /// Compiles `policy` on `layouts` for `threads` workers (`0` = the
    /// machine default) and a DAG of `par_depth` levels.
    fn compile<S: Scalar>(
        layouts: NodeLayouts,
        policy: ExecPolicy,
        par_depth: usize,
        threads: usize,
    ) -> TiledPlan {
        let cfg = ModgemmConfig { parallel_depth: par_depth, threads, ..ModgemmConfig::paper() };
        TiledPlan::new::<S>(layouts, policy, &cfg)
    }

    /// Runs `tp` on copies of the operands over a workspace filled with
    /// `dirt`, reporting through `sink`, and returns C.
    fn run_with<S: Scalar, K: MetricsSink>(
        tp: &TiledPlan,
        a: &[S],
        b: &[S],
        dirt: S,
        sink: &mut K,
    ) -> Result<Vec<S>, GemmError> {
        let (mut a, mut b) = (a.to_vec(), b.to_vec());
        let mut c = vec![dirt; tp.layouts.c.len()];
        let mut ws = vec![dirt; tp.ws_len()];
        let ops = Operands::Exclusive(&mut a, &mut b);
        tp.run(ops, &mut c, &mut ws, &mut PoolScratch::default(), None, sink)?;
        Ok(c)
    }

    fn run<S: Scalar>(tp: &TiledPlan, a: &[S], b: &[S], dirt: S) -> Vec<S> {
        run_with(tp, a, b, dirt, &mut NoopSink).unwrap()
    }

    fn square(tile: usize, depth: usize) -> NodeLayouts {
        let l = MortonLayout::new(tile, tile, depth);
        NodeLayouts::new(l, l, l)
    }

    fn morton_operands<S: Scalar>(layouts: NodeLayouts, seed: u64) -> (Matrix<S>, Vec<S>, Vec<S>) {
        let a: Matrix<S> = random_matrix(layouts.a.rows(), layouts.a.cols(), seed);
        let b: Matrix<S> = random_matrix(layouts.b.rows(), layouts.b.cols(), seed + 1);
        let mut ab = vec![S::ZERO; layouts.a.len()];
        let mut bb = vec![S::ZERO; layouts.b.len()];
        to_morton(a.view(), Op::NoTrans, &layouts.a, &mut ab);
        to_morton(b.view(), Op::NoTrans, &layouts.b, &mut bb);
        let expect = naive_product(&a, &b);
        (expect, ab, bb)
    }

    fn run_par(n: usize, tile: usize, depth: usize, par_depth: usize, seed: u64) {
        let layouts = square(tile, depth);
        let policy = ExecPolicy::default();
        let (expect, ab, bb) = morton_operands::<f64>(layouts, seed);
        let c_ser = run(&compile::<f64>(layouts, policy, par_depth, 1), &ab, &bb, 0.0);

        // The pooled DAG at several explicit worker counts, on a dirty slab,
        // must be bitwise identical whatever the machine's own parallelism.
        for threads in [2, 3, 7] {
            let tp = compile::<f64>(layouts, policy, par_depth, threads);
            assert_eq!(tp.par.is_some(), par_depth > 0, "threads = {threads}");
            let c_pool = run(&tp, &ab, &bb, f64::NAN);
            assert_eq!(c_pool, c_ser, "n = {n} par_depth = {par_depth} threads = {threads}");
        }

        let mut out = Matrix::zeros(n, n);
        from_morton(&c_ser, &layouts.c, out.view_mut());
        modgemm_mat::norms::assert_matrix_eq(out.view(), expect.view(), n);
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
        let layouts = square(16, 2);
        let policy = ExecPolicy { kernel: KernelKind::Packed, ..Default::default() };
        let (_, ab, bb) = morton_operands::<f64>(layouts, 51);

        // Each worker's slab share carries its own packing slot, so the
        // parallel run must be bitwise identical to the serial one.
        let mut sink = CollectingSink::new();
        let c_par =
            run_with(&compile::<f64>(layouts, policy, 1, 2), &ab, &bb, 0.0, &mut sink).unwrap();
        let c_ser = run(&compile::<f64>(layouts, policy, 1, 1), &ab, &bb, 0.0);
        assert_eq!(c_par, c_ser);

        let m = sink.into_metrics();
        assert_eq!(m.kernel_selected, Some(KernelKind::Packed));
        assert_eq!(m.bytes_packed, crate::counts::packed_bytes(layouts, policy, 8));
        assert!(m.bytes_packed > 0);
        assert!(m.pool.is_some(), "the pooled run reports pool counters");
    }

    #[test]
    fn pooled_parallel_with_fused_leaves_matches_staged_serial() {
        // Depth 3 with fuse 2 leaves exactly one *staged* level for the DAG;
        // each Leaf task then runs a two-level fused subtree. The pooled run
        // must agree bit-for-bit (i64) with both the serial fused plan and
        // the fully staged oracle, at every worker count — this is the test
        // the TSan job drives to race-check fused execution under real
        // concurrency.
        let layouts = square(8, 3);
        let (_, ab, bb) = morton_operands::<i64>(layouts, 61);
        let staged = ExecPolicy { kernel: KernelKind::Packed, ..Default::default() };
        let fused = ExecPolicy { fuse: 2, ..staged };
        let c_oracle = run(&compile::<i64>(layouts, staged, 0, 1), &ab, &bb, 0);
        let c_fused = run(&compile::<i64>(layouts, fused, 0, 1), &ab, &bb, 0);
        assert_eq!(c_fused, c_oracle, "serial fused vs staged oracle");

        for threads in [2, 4] {
            let tp = compile::<i64>(layouts, fused, 1, threads);
            assert!(tp.par.is_some());
            assert_eq!(run(&tp, &ab, &bb, i64::MAX), c_oracle, "threads = {threads}");
        }
    }

    #[test]
    fn every_tier_pooled_is_bitwise_serial_and_restores_inputs() {
        // The in-place tier's leaf subtrees write and then restore their raw
        // A/B quadrants while sibling tasks run; the DAG's SPre/TPre edges
        // must order every other reader first.
        let layouts = square(4, 3);
        let (expect, ab, bb) = morton_operands::<i64>(layouts, 71);
        for schedule in Schedule::ALL {
            let policy = ExecPolicy { schedule, ..Default::default() };
            let c_ser = run(&compile::<i64>(layouts, policy, 2, 1), &ab, &bb, 0);
            for threads in [2, 5] {
                let tp = compile::<i64>(layouts, policy, 2, threads);
                assert!(tp.par.is_some());
                let (mut a, mut b) = (ab.clone(), bb.clone());
                let mut c = vec![i64::MIN; layouts.c.len()];
                let mut ws = vec![i64::MAX; tp.ws_len()];
                let ops = Operands::Exclusive(&mut a, &mut b);
                tp.run(ops, &mut c, &mut ws, &mut PoolScratch::default(), None, &mut NoopSink)
                    .unwrap();
                assert_eq!(c, c_ser, "{schedule} threads = {threads}");
                assert!(a == ab && b == bb, "{schedule}: operands not restored");
            }
            let mut out = Matrix::zeros(32, 32);
            from_morton(&c_ser, &layouts.c, out.view_mut());
            assert_eq!(out, expect, "{schedule}");
        }
    }

    #[test]
    fn every_kernel_pooled_on_dirty_buffers_is_bitwise_serial() {
        // C starts as i64::MIN and the slab as i64::MAX on every pooled
        // run: a C quadrant the DAG never writes, or a temporary read
        // before its producer ran, leaves a sentinel-sized error behind.
        let rect = NodeLayouts::new(
            MortonLayout::new(3, 5, 2),
            MortonLayout::new(5, 4, 2),
            MortonLayout::new(3, 4, 2),
        );
        for (layouts, par_depth) in [(square(4, 3), 2), (square(5, 2), 1), (rect, 2)] {
            let (_, ab, bb) = morton_operands::<i64>(layouts, 81);
            for kernel in KernelKind::ALL {
                let policy = ExecPolicy { kernel, ..Default::default() };
                let c_ser = run(&compile::<i64>(layouts, policy, par_depth, 1), &ab, &bb, 0);
                for threads in [2, 3, 7] {
                    let tp = compile::<i64>(layouts, policy, par_depth, threads);
                    assert!(tp.par.is_some());
                    let (mut a, mut b) = (ab.clone(), bb.clone());
                    let mut c = vec![i64::MIN; layouts.c.len()];
                    let mut ws = vec![i64::MAX; tp.ws_len()];
                    let ops = Operands::Exclusive(&mut a, &mut b);
                    tp.run(ops, &mut c, &mut ws, &mut PoolScratch::default(), None, &mut NoopSink)
                        .unwrap();
                    assert_eq!(c, c_ser, "{kernel:?} {layouts:?} threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn try_parallel_reports_buffer_mismatch() {
        let layouts = square(4, 2);
        let tp = compile::<f64>(layouts, ExecPolicy::default(), 1, 2);
        assert!(tp.par.is_some());
        let a = vec![0.0f64; layouts.a.len()];
        let b = vec![0.0f64; layouts.b.len() + 3];
        assert_eq!(
            run_with(&tp, &a, &b, 0.0, &mut NoopSink),
            Err(GemmError::BufferLenMismatch {
                operand: Operand::B,
                needed: layouts.b.len(),
                got: layouts.b.len() + 3
            })
        );
    }

    #[test]
    fn dirty_oversized_slab_matches_a_clean_one() {
        let layouts = square(8, 2);
        let policy = ExecPolicy::default();
        let tp = compile::<f64>(layouts, policy, 1, 2);
        assert_eq!(tp.ws_len(), parallel_slab_len(layouts, policy, 1));
        let (_, ab, bb) = morton_operands::<f64>(layouts, 41);
        let clean = run(&tp, &ab, &bb, 0.0);

        // Every temporary is fully written before it is read, so a dirty,
        // oversized slab gives the bitwise result.
        let (mut a, mut b) = (ab.clone(), bb.clone());
        let mut c = vec![f64::NAN; layouts.c.len()];
        let mut dirty = vec![f64::NAN; tp.ws_len() + 13];
        let ops = Operands::Exclusive(&mut a, &mut b);
        tp.run(ops, &mut c, &mut dirty, &mut PoolScratch::default(), None, &mut NoopSink).unwrap();
        assert_eq!(c, clean);
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
        let layouts = square(8, 2);
        let policy = ExecPolicy::default();
        let (_, ab, bb) = morton_operands::<f64>(layouts, 21);
        let c_par = run(&compile::<f64>(layouts, policy, 1, 0), &ab, &bb, 0.0);
        let c_ser = run(&compile::<f64>(layouts, policy, 1, 1), &ab, &bb, 0.0);
        assert_eq!(c_par, c_ser);
    }

    #[test]
    fn integers_stay_exact_in_parallel() {
        let layouts = square(4, 3);
        let (expect, ab, bb) = morton_operands::<i64>(layouts, 9);
        let cb = run(&compile::<i64>(layouts, ExecPolicy::default(), 2, 0), &ab, &bb, 0);
        let mut out = Matrix::zeros(32, 32);
        from_morton(&cb, &layouts.c, out.view_mut());
        assert_eq!(out, expect);

        // Pooled DAG execution stays exact (and bitwise serial-equal) at a
        // worker count well above one level's task count.
        let c_pool = run(&compile::<i64>(layouts, ExecPolicy::default(), 2, 16), &ab, &bb, 0);
        assert_eq!(c_pool, cb);
    }
}
