//! The `report` binary's stdout, compared byte for byte with a
//! checked-in golden file — the mechanical form of the "fig4/fig8
//! byte-identity" gate. `report --quick` runs with no section argument,
//! so every section is covered, one added later included; a change to
//! one digit of one table is a diff of `tests/golden/report_quick.txt`.
//!
//! To regenerate after an intentional model change:
//!
//! ```text
//! RDMC_BLESS=1 cargo test --release -p rdmc-bench --test report_golden
//! ```

use std::process::{Command, Output};

fn report(threads: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .env("RDMC_BENCH_THREADS", threads)
        .output()
        .expect("spawn the report binary")
}

fn quick_tables(threads: &str) -> String {
    let out = report(threads, &["--quick"]);
    assert!(out.status.success(), "report failed: {:?}", out.status);
    String::from_utf8(out.stdout).expect("report prints UTF-8")
}

fn golden_path() -> String {
    format!(
        "{}/tests/golden/report_quick.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn golden() -> String {
    let path = golden_path();
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; run with RDMC_BLESS=1 to create"))
}

/// Panics, naming the first differing line, unless `got == want`.
fn assert_same(got: &str, want: &str, what: &str) {
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "report --quick {what} at line {}:\n  got:  {}\n  want: {}",
        line + 1,
        got.lines().nth(line).unwrap_or("<end of output>"),
        want.lines().nth(line).unwrap_or("<end of output>")
    );
}

#[test]
fn quick_tables_match_the_golden_at_one_and_four_threads() {
    let one = quick_tables("1");
    assert_same(
        &quick_tables("4"),
        &one,
        "differs between 4 worker threads and 1",
    );

    if std::env::var_os("RDMC_BLESS").is_some() {
        std::fs::write(golden_path(), &one).expect("write golden");
        return;
    }
    let want = golden();
    assert_same(
        &one,
        &want,
        "diverged from the golden (if intentional, regenerate with RDMC_BLESS=1)",
    );
}

/// The valid names are whatever the golden's section rules say they
/// are. `transport` is not one: timing real sockets is `benchmark/`'s job.
#[test]
fn unknown_section_or_flag_lists_the_valid_names_and_exits_2() {
    let golden = golden();
    let sections: Vec<&str> = golden
        .lines()
        .filter_map(|l| l.strip_prefix("==================== "))
        .filter_map(|l| l.strip_suffix(" ===================="))
        .collect();
    assert!(!sections.is_empty(), "golden has no section rules");
    for bad in ["fig13", "--quik", "transport"] {
        let out = report("1", &["--quick", bad]);
        assert_eq!(out.status.code(), Some(2), "`report {bad}` must exit 2");
        assert!(out.stdout.is_empty(), "`report {bad}` ran a section");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(bad) && sections.iter().all(|s| err.contains(s)),
            "`report {bad}` must name the bad argument and the sections: {err}"
        );
    }
}
