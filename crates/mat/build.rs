//! Sets `cfg(modgemm_avx512)` when the compiler has the AVX-512F
//! intrinsics and target feature stable (Rust 1.89). Older compilers, down
//! to the workspace MSRV, build the AVX2 microkernel bodies only.

use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rustc-check-cfg=cfg(modgemm_avx512)");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let minor = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|v| v.split('.').nth(1).and_then(|m| m.parse::<u32>().ok()));
    if minor.is_some_and(|m| m >= 89) {
        println!("cargo:rustc-cfg=modgemm_avx512");
    }
}
