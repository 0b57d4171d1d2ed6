//! Tuning-profile loading semantics — kept in its own test binary (own
//! process) because these tests mutate `MODGEMM_PROFILE` and exercise
//! the process-global profile snapshot, which is loaded exactly once.
//!
//! One test function per concern that touches the environment, and the
//! env-dependent assertions are serialized inside a single function so
//! the harness cannot race them.

use modgemm_core::tune::{self, TuningMode, TuningProfile};
use modgemm_core::{GemmContext, GemmError, GemmPlan, ModgemmConfig};
use modgemm_mat::gen::random_matrix;
use modgemm_mat::view::Op;
use modgemm_mat::{KernelKind, Matrix};

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("modgemm-profile-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A minimal valid profile naming an unmistakable choice: Naive kernel,
/// strassen_min 48 — values no static heuristic would pick.
fn marker_profile_json() -> String {
    r#"{
  "schema_version": 6,
  "created_unix": 1754600000,
  "machine": {"os": "linux", "arch": "x86_64", "num_cpus": 2},
  "objective": "min-time",
  "entries": [
    {"m": 96, "k": 96, "n": 96, "tile_min": 16, "tile_max": 64,
     "strassen_min": 48, "kernel": "naive", "threads": 0, "fuse_depth": 0, "batch_window": 0,
     "score": 1.0}
  ]
}"#
    .to_string()
}

#[test]
fn corrupt_profile_files_fail_typed_and_the_global_snapshot_is_sticky() {
    let dir = temp_dir();
    let outdated_v5 = marker_profile_json()
        .replace("\"schema_version\": 6", "\"schema_version\": 5")
        .replace("\"score\"", "\"schedule\": \"in-place\", \"score\"");

    // 1. Corrupt files on disk — truncated, garbage, future schema —
    //    all load as typed InvalidConfig, never a panic.
    let cases: &[(&str, &str)] = &[
        ("empty.json", ""),
        ("garbage.json", "\u{1}\u{2}not json"),
        ("truncated.json", "{\"schema_version\": 6, \"entries\": [{\"m\": 96,"),
        ("future.json", "{\"schema_version\": 99, \"entries\": []}"),
        ("outdated.json", "{\"schema_version\": 1, \"entries\": []}"),
        ("outdated_v2.json", "{\"schema_version\": 2, \"entries\": []}"),
        ("outdated_v3.json", "{\"schema_version\": 3, \"entries\": []}"),
        ("outdated_v4.json", "{\"schema_version\": 4, \"entries\": []}"),
        // A version-5 entry may pin the deleted in-place schedule tier.
        ("outdated_v5.json", &outdated_v5),
        ("wrong_type.json", "[]"),
    ];
    for (name, text) in cases {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        match TuningProfile::load_from_path(&path) {
            Err(GemmError::InvalidConfig { reason }) => assert!(
                !name.starts_with("outdated") || reason.contains("outdated"),
                "{name}: {reason}"
            ),
            other => panic!("{name}: expected InvalidConfig, got {other:?}"),
        }
    }
    // A missing file is unreadable → also typed.
    assert!(matches!(
        TuningProfile::load_from_path(&dir.join("absent.json")),
        Err(GemmError::InvalidConfig { .. })
    ));

    // 2. MODGEMM_PROFILE pointing at a *valid* profile: the global
    //    snapshot loads it, Profile-mode planning consults it, and the
    //    tuned product is bit-identical to the untuned one.
    let good = dir.join("profile.json");
    std::fs::write(&good, marker_profile_json()).unwrap();
    std::env::set_var(tune::MODGEMM_PROFILE_ENV, &good);
    assert_eq!(tune::profile_path(), good, "the env override must win");
    let loaded = tune::global_profile().expect("valid env-pointed profile must load");
    let profile = loaded.expect("an existing file is Some");
    assert_eq!(profile.entries.len(), 1);
    assert_eq!(profile.entries[0].choice.kernel, KernelKind::Naive);

    let (m, k, n) = (96usize, 96usize, 96usize);
    let tuned_cfg = ModgemmConfig {
        leaf_kernel: KernelKind::Auto,
        tuning: TuningMode::Profile,
        ..Default::default()
    };
    let plan = GemmPlan::<i64>::try_new(m, k, n, &tuned_cfg).expect("tuned planning must succeed");
    assert!(plan.profile_hit(), "the loaded profile must drive selection");

    let a: Matrix<i64> = random_matrix(m, k, 3);
    let b: Matrix<i64> = random_matrix(k, n, 4);
    let mut c_tuned: Matrix<i64> = Matrix::zeros(m, n);
    let mut ctx = GemmContext::new();
    plan.try_execute(
        1,
        Op::NoTrans,
        a.view(),
        Op::NoTrans,
        b.view(),
        0,
        c_tuned.view_mut(),
        &mut ctx,
    )
    .expect("tuned execution must succeed");
    let untuned_plan = GemmPlan::<i64>::try_new(m, k, n, &ModgemmConfig::default()).unwrap();
    assert!(!untuned_plan.profile_hit());
    let mut c_untuned: Matrix<i64> = Matrix::zeros(m, n);
    untuned_plan
        .try_execute(
            1,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0,
            c_untuned.view_mut(),
            &mut ctx,
        )
        .expect("untuned execution must succeed");
    assert_eq!(c_tuned, c_untuned, "a profile changes the plan, never the product");

    // 3. The snapshot is per-process and sticky: pointing the env at a
    //    corrupt file *after* the first load changes nothing (the
    //    already-loaded profile keeps serving), which is exactly what
    //    keeps service plan-cache keys coherent.
    std::env::set_var(tune::MODGEMM_PROFILE_ENV, dir.join("garbage.json"));
    assert!(tune::global_profile().is_ok(), "the first successful load is the snapshot");
    assert!(
        GemmPlan::<i64>::try_new(m, k, n, &tuned_cfg).is_ok(),
        "Profile-mode planning keeps working off the snapshot"
    );

    // 4. Fresh (non-global) loads still see the env: an explicitly
    //    pointed-at missing or corrupt path is a typed error from
    //    `load_default`.
    std::env::set_var(tune::MODGEMM_PROFILE_ENV, dir.join("absent.json"));
    assert!(matches!(tune::load_default(), Err(GemmError::InvalidConfig { .. })));
    std::env::set_var(tune::MODGEMM_PROFILE_ENV, dir.join("garbage.json"));
    assert!(matches!(tune::load_default(), Err(GemmError::InvalidConfig { .. })));

    std::env::remove_var(tune::MODGEMM_PROFILE_ENV);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forced_mode_needs_no_file_and_matches_its_choice() {
    // Forced mode never touches the filesystem: it must work with no
    // profile anywhere and drive the same application path.
    let choice = modgemm_core::TunedChoice {
        strassen_min: 24,
        kernel: KernelKind::Blocked,
        ..modgemm_core::TunedChoice::baseline()
    };
    let cfg = ModgemmConfig {
        leaf_kernel: KernelKind::Auto,
        tuning: TuningMode::Forced(choice),
        ..Default::default()
    };
    let plan = GemmPlan::<f64>::try_new(64, 64, 64, &cfg).expect("forced planning must succeed");
    assert!(plan.profile_hit());
}
