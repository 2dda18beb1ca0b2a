//! `capacity-cli` refuses a command line it cannot parse — a typo used to
//! run the defaults and exit 0.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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
        message.contains("hysteresis watermarks must keep 0 <= low < high <= 1"),
        "{message}"
    );
    assert!(message.contains("low 0.95, high 0.9"), "{message}");

    let unreachable = cli(&["run", "--shed-high", "1.5"]);
    assert_eq!(unreachable.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unreachable.stderr).contains("high 1.5"));

    let small = ["--erlangs", "4", "--window", "10", "--holding", "5"];
    let valid = cli(&[&["run", "--shed-high", "0.9", "--json"], &small[..]].concat());
    assert_eq!(valid.status.code(), Some(0));
}

/// Counts are whole numbers >= 1, the replication budget covers the
/// minimum and an offered load is positive: a zero, a fraction or a
/// negative used to run something else, panic or print a table of zeros.
/// So are a rate multiplier, scale, holding time and placement window: a
/// zero or negative arrival rate used to re-fire one call at the same
/// instant forever, and a negative or overflowing window ran nothing and
/// exited 0. A sweep study refuses what `validate` refuses in any of its
/// cells; it used to panic inside the sweep and exit 101.
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
        (
            &["run", "--erlangs", "0"],
            "offered load 0.0 E must be finite and > 0",
        ),
        (
            &["scale", "--erlangs", "-5"],
            "offered load -5.0 E must be finite and > 0",
        ),
        (
            &["scale", "--subs", "0"],
            "--subs 0 must be a whole number >= 1",
        ),
        (
            &["fig7", "--population", "0"],
            "--population 0 must be a whole number >= 1",
        ),
        (
            &[
                "run",
                "--flash-at",
                "5",
                "--flash-mult",
                "0",
                "--window",
                "20",
            ],
            "flash crowd rate multiplier 0 must be finite and > 0",
        ),
        (
            &["run", "--flash-at", "5", "--flash-mult", "-2"],
            "flash crowd rate multiplier -2 must be finite and > 0",
        ),
        (
            &["table1", "--scale", "0"],
            "holding mean 0 s must be finite and > 0",
        ),
        (
            &["table1", "--scale", "-1"],
            "holding mean -120 s must be finite and > 0",
        ),
        (
            &["run", "--window", "-5"],
            "--window -5 must be finite and >= 0 s",
        ),
        (
            &["run", "--window", "0"],
            "placement window 0 s must be in (0, 1e9]",
        ),
        (
            &["run", "--window", "1e12"],
            "placement window 1000000000000 s must be in (0, 1e9]",
        ),
        (
            &["run", "--holding", "-3"],
            "--holding -3 must be finite and >= 0 s",
        ),
        (
            &["run", "--holding", "inf"],
            "--holding inf must be finite and >= 0 s",
        ),
        (
            &["campaign", "--window", "-5"],
            "--window -5 must be finite and >= 0 s",
        ),
        (
            &["campaign", "--window", "0"],
            "placement window 0 s must be in (0, 1e9]",
        ),
        // The sweep studies check every cell before the first one runs.
        (
            &["table1", "--scale", "1e300"],
            "holding mean 1.2e302 s must be at most 1e9 s",
        ),
        (
            &["policy", "--erlangs", "1e300", "--reps", "1"],
            "arrival rate 8.333333333333334e297 calls/s",
        ),
        (
            &["farm", "--erlangs", "1e300", "--reps", "1"],
            "arrival rate 8.333333333333334e297 calls/s",
        ),
        (
            &["campaign", "--smoke", "--window", "1e300"],
            "must be in (0, 1e9]",
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

/// The invocations a nonsense value used to run to exit 0, and the one
/// whose loss ramp built a link loss above 1 and panicked: each now exits
/// 2 with one line, or runs.
#[test]
fn nonsense_run_flags_are_refused() {
    for args in [
        &["run", "--channels", "-3"][..],
        &["run", "--seed", "-4"],
        &["run", "--partition-at", "10", "--heal-at", "5"],
        &["run", "--crash-at", "10", "--restart-after", "-5"],
        &["run", "--flash-at", "10", "--flash-dur", "-5"],
        &["run", "--retry-max", "2", "--retry-base", "-1"],
        &["run", "--channels", "2.5"],
        &["fig7", "--channels", "-5"],
        &["campaign", "--smoke", "--channels", "-2"],
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
    let past_the_paper = cli(&[
        "run",
        "--erlangs",
        "50000",
        "--window",
        "1",
        "--holding",
        "5",
    ]);
    assert_eq!(past_the_paper.status.code(), Some(0));
    let zero_channels = cli(&["run", "--channels", "0", "--erlangs", "2", "--window", "5"]);
    assert_eq!(zero_channels.status.code(), Some(0));
}

/// `capacity-cli` with `args`, killed at `deadline`: `None` if it had to
/// be.
fn cli_within(args: &[&str], deadline: Duration) -> Option<Output> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_capacity-cli"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("capacity-cli starts");
    let started = Instant::now();
    while child.try_wait().expect("child status").is_none() {
        if started.elapsed() > deadline {
            child.kill().expect("kill");
            child.wait().expect("reaped");
            return None;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Some(child.wait_with_output().expect("output"))
}

/// Every value-taking flag `run` and `scale` read, at 0, -1, NaN, inf and
/// 1e300 on a small cell (with the flag that enables it, where one does):
/// each either runs (exit 0) or is refused with exactly one stderr line
/// and no stdout (exit 2). A panic (101), an abort when memory runs out
/// (134) or a run past the deadline fails.
#[test]
fn every_run_and_scale_flag_runs_or_is_refused_at_its_edges() {
    let run_base = [
        "--erlangs",
        "2",
        "--window",
        "5",
        "--holding",
        "2",
        "--channels",
        "4",
    ];
    let scale_base = ["--smoke", "--subs", "500", "--erlangs", "2"];
    let run_flags: [(&str, &[&str]); 20] = [
        ("--erlangs", &[]),
        ("--channels", &[]),
        ("--holding", &[]),
        ("--window", &[]),
        ("--servers", &[]),
        ("--seed", &[]),
        ("--shed-high", &[]),
        ("--shed-low", &["--shed-high", "0.9"]),
        ("--retry-after", &["--shed-high", "0.9"]),
        ("--retry-max", &["--shed-high", "0.5"]),
        ("--retry-base", &["--retry-max", "2", "--shed-high", "0.5"]),
        ("--retry-cap", &["--retry-max", "2", "--shed-high", "0.5"]),
        ("--partition-at", &[]),
        ("--heal-at", &["--partition-at", "2"]),
        ("--crash-at", &[]),
        ("--restart-after", &["--crash-at", "2"]),
        ("--flash-at", &[]),
        ("--flash-mult", &["--flash-at", "2"]),
        ("--flash-dur", &["--flash-at", "2"]),
        ("--storm", &[]),
    ];
    let scale_flags = ["--subs", "--erlangs", "--channels", "--seed"];
    let cases = run_flags
        .iter()
        .map(|&(flag, enable)| ("run", &run_base[..], flag, enable))
        .chain(scale_flags.map(|flag| ("scale", &scale_base[..], flag, &[][..])));
    for (command, base, flag, enable) in cases {
        for value in ["0", "-1", "NaN", "inf", "1e300"] {
            // The flag under test replaces its base value.
            let mut args = vec![command];
            for pair in base.chunks(2) {
                if pair[0] != flag {
                    args.extend_from_slice(pair);
                }
            }
            args.extend_from_slice(enable);
            args.extend([flag, value]);
            let out = cli_within(&args, Duration::from_secs(60))
                .unwrap_or_else(|| panic!("{args:?}: killed at the deadline"));
            let stderr = String::from_utf8_lossy(&out.stderr);
            match out.status.code() {
                Some(0) => {}
                Some(2) => {
                    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
                    assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
                }
                code => panic!("{args:?}: exit {code:?}: {stderr}"),
            }
        }
    }
}
