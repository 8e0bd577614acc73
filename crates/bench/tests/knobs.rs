//! A set but malformed `NBTREE_BENCH_*` knob stops `sweep` with exit
//! status 2 and a message naming the variable, before any cell runs.

use std::process::Command;

const KNOBS: [&str; 6] = [
    "NBTREE_BENCH_FULL",
    "NBTREE_BENCH_SECS",
    "NBTREE_BENCH_TRIALS",
    "NBTREE_BENCH_THREADS",
    "NBTREE_BENCH_RANGES",
    "NBTREE_BENCH_RANGE_WIDTH",
];

#[test]
fn malformed_knobs_exit_2_naming_the_variable() {
    let out = std::env::temp_dir().join("nbtree-knobs-test.json");
    let _ = std::fs::remove_file(&out);
    for (var, value) in [
        ("NBTREE_BENCH_SECS", "zz"),
        ("NBTREE_BENCH_TRIALS", "0"),
        ("NBTREE_BENCH_THREADS", ""),
        ("NBTREE_BENCH_RANGES", "abc"),
        ("NBTREE_BENCH_RANGES", "x100"),
        ("NBTREE_BENCH_RANGE_WIDTH", "wide"),
    ] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep"));
        for knob in KNOBS {
            cmd.env_remove(knob);
        }
        let result = cmd
            .args(["range", "--out"])
            .arg(&out)
            .env(var, value)
            .output()
            .expect("spawn sweep");
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(2), "{var}={value:?}: {stderr}");
        assert!(stderr.contains(var), "{var}={value:?}: {stderr}");
    }
    assert!(!out.exists(), "a rejected sweep wrote its artifact");
}
