//! Extension study: tile orderings compared — Morton (the paper's
//! choice), Hilbert (better streaming locality), and row-major tiling
//! (contiguous tiles, no hierarchical structure).
//!
//! Two measurements per ordering:
//!
//! 1. **streaming locality** — mean Manhattan distance between the grid
//!    positions of consecutive buffer tiles (1.0 is optimal);
//! 2. **panel-sweep miss ratio** — a tiled `C = A·B` visits the `C` tiles
//!    in the layout's order; producing the tile at grid `(tr, tc)` reads
//!    the whole `A` tile-row `tr` and `B` tile-column `tc`. Consecutive
//!    `C` tiles that share `tr` reuse the `A` panel, sharing `tc` reuses
//!    the `B` panel — so the ordering directly sets the operand traffic.
//!    This is the access structure behind Frens & Wise's recursive
//!    multiply (cited in §5.2) and behind `morton_mul_add_with_ws`'s call order.
//!
//! Morton's quadrant contiguity is what Strassen's recursion needs
//! (§3.3); this study quantifies its locality cost relative to the
//! optimal Hilbert ordering and its benefit over naive row-major
//! sweeping.

use modgemm_cachesim::{Cache, CacheConfig};
use modgemm_experiments::{JsonArtifact, Table};
use modgemm_morton::hilbert::{hilbert_d2xy, tile_order_locality};
use modgemm_morton::layout::deinterleave2;

/// Simulated miss ratio of a tiled-multiply panel sweep: for each `C`
/// tile in `order`, touch every element of the `A` tile-row and `B`
/// tile-column panels plus the `C` tile itself.
fn panel_sweep_miss_ratio(
    g: usize,
    t: usize,
    order: &dyn Fn(usize) -> (usize, usize),
    cache_cfg: CacheConfig,
) -> f64 {
    let elem = 8u64;
    let tile_bytes = (t * t) as u64 * elem;
    let mat_bytes = (g * g) as u64 * tile_bytes;
    let a_base = 4096u64;
    let b_base = a_base + mat_bytes + 5440;
    let c_base = b_base + mat_bytes + 5440;
    let mut cache = Cache::new(cache_cfg);

    // Operand buffers are tiled in the same order as the sweep (their
    // tiles are contiguous; only grid→offset differs by ordering).
    let mut code = vec![0usize; g * g];
    for d in 0..g * g {
        let (tr, tc) = order(d);
        code[tr * g + tc] = d;
    }
    let tile_addr = |base: u64, tr: usize, tc: usize| base + code[tr * g + tc] as u64 * tile_bytes;

    let touch_tile = |cache: &mut Cache, addr: u64| {
        let mut off = 0;
        while off < tile_bytes {
            cache.access(addr + off);
            off += elem;
        }
    };

    for d in 0..g * g {
        let (tr, tc) = order(d);
        for p in 0..g {
            touch_tile(&mut cache, tile_addr(a_base, tr, p));
            touch_tile(&mut cache, tile_addr(b_base, p, tc));
        }
        touch_tile(&mut cache, tile_addr(c_base, tr, tc));
    }
    cache.stats().miss_ratio()
}

fn main() {
    let mut art = JsonArtifact::new("layout_orders");
    let mut table = Table::new(&[
        "grid",
        "tile",
        "order",
        "mean_tile_jump",
        "sweep_miss_pct_16k",
        "sweep_miss_pct_64k",
    ]);
    let big = CacheConfig { size: 64 * 1024, block: 32, assoc: 1 };

    for (depth, t) in [(4usize, 16usize), (5, 8), (3, 32)] {
        let g = 1usize << depth;
        #[allow(clippy::type_complexity)]
        let orders: [(&str, Box<dyn Fn(usize) -> (usize, usize)>); 3] = [
            ("morton", Box::new(move |d| deinterleave2(d, depth))),
            ("hilbert", Box::new(move |d| hilbert_d2xy(depth, d))),
            ("rowmajor", Box::new(move |d| (d / g, d % g))),
        ];
        for (name, order) in &orders {
            let loc = tile_order_locality(order, g * g);
            let m16 = panel_sweep_miss_ratio(g, t, order.as_ref(), CacheConfig::PAPER_FIG9);
            let m64 = panel_sweep_miss_ratio(g, t, order.as_ref(), big);
            table.row(vec![
                format!("{g}x{g}"),
                t.to_string(),
                name.to_string(),
                format!("{loc:.3}"),
                format!("{:.2}", 100.0 * m16),
                format!("{:.2}", 100.0 * m64),
            ]);
        }
    }

    art.print_table("Extension: tile orderings — locality and panel-sweep miss ratios", &table);
    println!("\nFindings: Hilbert achieves the optimal mean jump of 1.0 and always at");
    println!("least matches Morton on the sweep. Row-major wins this *panel-major*");
    println!("sweep whenever one operand panel fits in cache (it pins the A panel for");
    println!("a whole tile row), while the hierarchical orders change rows too often");
    println!("to exploit that — their advantage is recursive blocking at every scale,");
    println!("which this single-level sweep deliberately excludes (see fig9 and the");
    println!("ablation benches for the full-recursion picture). Morton's remaining");
    println!("edge over Hilbert is structural: aligned quadrants are contiguous in");
    println!("buffer order, which is what Strassen's recursion consumes (§3.3).");

    art.finish();
}
