//! The multi-process workload leaves nothing behind: no role process
//! outlives the benchmark, whether it ends normally or panics mid-run,
//! and its scratch directories are removed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Live processes whose environment holds `WWBENCH_TAG=<tag>`; role
/// processes inherit the benchmark's environment, so they carry it too.
fn tagged(tag: &str) -> Vec<u32> {
    let needle = format!("WWBENCH_TAG={tag}");
    let mut out = Vec::new();
    for entry in std::fs::read_dir("/proc")
        .expect("/proc is readable")
        .flatten()
    {
        let Some(pid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Ok(env) = std::fs::read(entry.path().join("environ")) {
            if env.split(|&b| b == 0).any(|kv| kv == needle.as_bytes()) {
                out.push(pid);
            }
        }
    }
    out
}

fn run(dir: &Path, tag: &str, panic: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_wwbench"));
    cmd.args(["--workload", "realtime_cluster", "--seed", "1"])
        .args(["--seconds", "2", "--trace", "0"])
        .current_dir(dir)
        .env("WWBENCH_TAG", tag);
    if panic {
        cmd.env("WWBENCH_PANIC_AFTER_LAUNCH", "1");
    }
    cmd.output().expect("benchmark starts")
}

#[test]
fn no_role_process_outlives_the_benchmark() {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cleanup-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test directory");
    for panic in [false, true] {
        let tag = format!("{}-{panic}", std::process::id());
        let out = run(&dir, &tag, panic);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        if panic {
            assert!(!out.status.success(), "a panicking run must fail");
            assert!(stderr.contains("WWBENCH_PANIC_AFTER_LAUNCH"), "{stderr}");
        } else {
            // A loaded test host may push the sender past its lateness
            // bound; that run is reported invalid, which is still a clean
            // exit for this test's purpose.
            let invalid = stderr.contains("invalid run");
            assert!(out.status.success() || invalid, "{stdout}\n{stderr}");
            if out.status.success() {
                let last = stdout.lines().last().unwrap_or_default();
                assert!(last.starts_with("{\"correct\": true"), "{last}");
            }
        }
        let left = tagged(&tag);
        assert!(
            left.is_empty(),
            "processes outlived the run (panic={panic}): {left:?}"
        );
        assert!(
            !dir.join(".bench_tmp").exists(),
            "scratch directories left behind (panic={panic})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
