#![warn(missing_docs)]

//! Morton-order (quadtree) matrix layout — §3.3 of the SC'98 paper.
//!
//! A matrix is padded to `(Tm·2^d) × (Tn·2^d)` and stored as a quadtree:
//! each level lays its four quadrants out in memory in the order
//! **NW, NE, SW, SE**; a leaf is a `Tm × Tn` tile stored column-major and
//! therefore *contiguous* in memory. Contiguity of tiles removes
//! self-interference misses in the leaf multiply and makes its performance
//! insensitive to the tile size — which is what allows the recursion
//! truncation point to be chosen *dynamically* to minimize padding
//! (§3.1/§3.4, Figure 2).
//!
//! Modules:
//! * [`tiling`] — tile-size / recursion-depth selection (the Figure 2
//!   machinery), including the joint selection across the `m`, `k`, `n`
//!   dimensions that must share one recursion depth.
//! * [`layout`] — the [`layout::MortonLayout`] address arithmetic
//!   (tile numbering exactly as the paper's Figure 1).
//! * [`convert`] — column-major ⇄ Morton conversion, with transposition
//!   folded into the ingest direction (§3.5) and zero-filled padding.
//!   Tiles are independent (Figure 7 puts conversion at 5–15% of a
//!   call), so the pack works on tile ranges and the unpack on tile
//!   columns: the units the GEMM task DAG schedules as tasks.
//! * [`hilbert`] — a Hilbert-curve tile ordering for layout studies: the
//!   locality-optimal alternative whose *lack of self-similarity* is
//!   exactly why the paper's algorithm needs Morton order (see the module
//!   docs and the `layout_orders` experiment).

pub mod convert;
pub mod hilbert;
pub mod layout;
pub mod tiling;

pub use convert::{
    from_morton, from_morton_axpby, pack_tile_range, to_morton, unpack_tile_cols_raw,
};
pub use layout::MortonLayout;
pub use tiling::{choose_dim_tiling, choose_joint_tiling, DimTiling, JointTiling, TileRange};
