//! `capacity-cli` refuses a command line it cannot parse — a typo used to
//! run the defaults and exit 0.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_capacity-cli"))
        .args(args)
        .output()
        .expect("capacity-cli runs")
}

#[test]
fn typos_are_rejected_and_valid_json_still_parses() {
    let typo = cli(&["run", "--erlang", "50"]);
    assert_eq!(typo.status.code(), Some(2));
    let message = String::from_utf8_lossy(&typo.stderr);
    assert!(message.contains("unknown flag --erlang"), "{message}");
    assert!(typo.stdout.is_empty(), "nothing ran");

    let bad_value = cli(&["run", "--erlangs", "fifty"]);
    assert_eq!(bad_value.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_value.stderr).contains("--erlangs needs a numeric value"));

    let fig3 = cli(&["fig3", "--json"]);
    assert_eq!(fig3.status.code(), Some(0));
    let curves: Vec<capacity::figures::Fig3Curve> =
        serde_json::from_str(&String::from_utf8_lossy(&fig3.stdout)).expect("JSON");
    assert_eq!(curves.len(), 12);
}

/// Shed watermarks that would make the hysteresis law flap (low above
/// high) or never engage (high above the load cap of 1) are refused.
#[test]
fn shed_watermarks_are_checked() {
    let inverted = cli(&["run", "--shed-high", "0.9", "--shed-low", "0.95"]);
    assert_eq!(inverted.status.code(), Some(2));
    let message = String::from_utf8_lossy(&inverted.stderr);
    assert!(
        message.contains("--shed-low 0.95 must be below"),
        "{message}"
    );

    let unreachable = cli(&["run", "--shed-high", "1.5"]);
    assert_eq!(unreachable.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unreachable.stderr).contains("--shed-high 1.5"));

    let small = ["--erlangs", "4", "--window", "10", "--holding", "5"];
    let valid = cli(&[&["run", "--shed-high", "0.9", "--json"], &small[..]].concat());
    assert_eq!(valid.status.code(), Some(0));
}

/// Counts are whole numbers >= 1, the replication budget covers the
/// minimum and an offered load is positive: a zero, a fraction or a
/// negative used to run something else, panic or print a table of zeros.
#[test]
fn counts_and_offered_load_are_checked() {
    for (args, message) in [
        (
            &["fig6", "--reps", "0"][..],
            "--reps 0 must be a whole number >= 1",
        ),
        (
            &["fig6", "--reps", "2.5"],
            "--reps 2.5 must be a whole number >= 1",
        ),
        (
            &["fig6", "--threads", "-3"],
            "--threads -3 must be a whole number >= 1",
        ),
        (
            &["policy", "--reps", "0"],
            "--reps 0 must be a whole number >= 1",
        ),
        (
            &["policy", "--users", "0"],
            "--users 0 must be a whole number >= 1",
        ),
        (
            &["policy", "--users", "2.5"],
            "--users 2.5 must be a whole number >= 1",
        ),
        (
            &["fig6", "--max-reps", "0"],
            "--max-reps 0 must be a whole number >= 1",
        ),
        (
            &["fig6", "--ci-target", "1", "--reps", "5", "--max-reps", "1"],
            "--max-reps 1 must be >= --reps 5",
        ),
        (
            &["run", "--servers", "0"],
            "--servers 0 must be a whole number >= 1",
        ),
        (
            &["run", "--servers", "1.5"],
            "--servers 1.5 must be a whole number >= 1",
        ),
        (&["run", "--erlangs", "0"], "--erlangs 0 must be > 0"),
        (&["scale", "--erlangs", "-5"], "--erlangs -5 must be > 0"),
        (
            &["scale", "--subs", "0"],
            "--subs 0 must be a whole number >= 1",
        ),
        (
            &["fig7", "--population", "0"],
            "--population 0 must be a whole number >= 1",
        ),
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
}

/// `--progress` writes one stderr line per finished cell and leaves
/// stdout byte-identical; without it stderr stays empty.
#[test]
fn progress_lines_go_to_stderr_only() {
    let args = ["fig6", "--smoke", "--json", "--threads", "2"];
    let quiet = cli(&args);
    let loud = cli(&[&args[..], &["--progress"]].concat());
    assert_eq!(quiet.status.code(), Some(0));
    assert_eq!(loud.status.code(), Some(0));
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    assert_eq!(
        text(&loud.stdout),
        text(&quiet.stdout),
        "--progress changed stdout"
    );
    assert!(
        quiet.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&quiet.stderr)
    );
    let stderr = String::from_utf8_lossy(&loud.stderr);
    let mut cells: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("sweep: cell "))
        .map(|rest| rest.split(' ').next().unwrap_or(""))
        .collect();
    cells.sort_unstable();
    assert_eq!(cells, ["0", "1", "2"], "one line per smoke cell: {stderr}");
}

/// The Fig. 7 title names the population and pool the curves were
/// computed for, not the paper's defaults.
#[test]
fn fig7_title_names_its_population_and_pool() {
    let out = cli(&["fig7", "--population", "2000", "--channels", "100"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).lines().next(),
        Some("Figure 7: blocking vs calling population share (2000 users, N=100)")
    );
}
