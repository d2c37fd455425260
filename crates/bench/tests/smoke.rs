//! Smoke tests for the experiment binaries: every binary must support
//! `--help` (printing usage without starting a workload) so future PRs
//! cannot silently break the CLI surface, and must reject a flag it does
//! not list. One binary also runs a real (tiny) workload end-to-end.

use std::process::Command;

/// `(name, path)` of every experiment binary, resolved by Cargo at
/// compile time — adding a binary without extending this list is caught
/// by the `all_binaries_listed` test below.
const BINARIES: &[(&str, &str)] = &[
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("figure2", env!("CARGO_BIN_EXE_figure2")),
    ("incremental_algos", env!("CARGO_BIN_EXE_incremental_algos")),
    ("rank_tails", env!("CARGO_BIN_EXE_rank_tails")),
    ("theorem1_sweep", env!("CARGO_BIN_EXE_theorem1_sweep")),
    ("theorem2_sweep", env!("CARGO_BIN_EXE_theorem2_sweep")),
    ("workloads", env!("CARGO_BIN_EXE_workloads")),
];

#[test]
fn every_binary_answers_help() {
    for (name, exe) in BINARIES {
        let out = Command::new(exe)
            .arg("--help")
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert!(out.status.success(), "{name} --help exited with {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("Usage:"), "{name} --help printed no usage:\n{stdout}");
        assert!(stdout.contains("--help"), "{name} --help does not list --help:\n{stdout}");
        // --help must not run the experiment: usage output is short
        // (the longest option list is ~25 rows), experiment output
        // (tables, sweeps) is hundreds of lines.
        assert!(
            stdout.lines().count() < 32,
            "{name} --help looks like it ran the workload ({} lines)",
            stdout.lines().count()
        );
    }
}

#[test]
fn every_binary_rejects_unknown_flags() {
    // `--json` is a retired option: it must fail like any other unknown
    // flag, not run the workload and silently write nothing. So is the
    // sequential binaries' `--batch-size`: their framework pops one task at
    // a time.
    for (name, exe) in BINARIES {
        let batch: &[&[&str]] = match *name {
            "workloads" | "incremental_algos" => &[&["--batch-size", "2"]],
            _ => &[],
        };
        for &args in [&["--no-such-flag"][..], &["--json", "x"]].iter().chain(batch) {
            let out = Command::new(exe)
                .args(args)
                .output()
                .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
            assert_eq!(out.status.code(), Some(2), "{name} {args:?} exited {:?}", out.status);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(args[0]), "{name} {args:?} does not name the flag:\n{stderr}");
            assert!(stderr.contains("Usage:"), "{name} {args:?} printed no usage:\n{stderr}");
            assert!(out.stdout.is_empty(), "{name} {args:?} started the workload");
        }
    }
}

#[test]
fn all_binaries_listed() {
    let bin_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut on_disk: Vec<String> = std::fs::read_dir(bin_dir)
        .expect("src/bin must exist")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".rs").map(str::to_owned)
        })
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = BINARIES.iter().map(|(n, _)| n.to_string()).collect();
    listed.sort();
    assert_eq!(on_disk, listed, "src/bin and the smoke-test BINARIES list disagree");
}

#[test]
fn rank_tails_tiny_run_succeeds() {
    // The cheapest binary end-to-end: validates arg parsing, the scheduler
    // zoo, and the instrumented drain on a small n.
    let exe = env!("CARGO_BIN_EXE_rank_tails");
    let out = Command::new(exe)
        .args(["--n", "2000", "--k", "8", "--seed", "1"])
        .output()
        .expect("failed to spawn rank_tails");
    assert!(out.status.success(), "rank_tails tiny run failed: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Definition 1"), "unexpected output:\n{stdout}");
}
