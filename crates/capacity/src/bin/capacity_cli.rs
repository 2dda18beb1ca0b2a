//! `capacity-cli` — regenerate the paper's tables and figures from the
//! command line.
//!
//! ```text
//! capacity-cli fig3                 # Erlang-B curves (Fig. 3)
//! capacity-cli table1 [--scale X]   # empirical Table I (slow at scale 1)
//! capacity-cli fig6 [--reps R]      # empirical vs analytic sweep (Fig. 6)
//! capacity-cli fig6 --ci-target 0.5 # adaptive replications per point
//! capacity-cli fig7                 # population dimensioning (Fig. 7)
//! capacity-cli run --erlangs A      # one empirical run, full details
//! ```
//!
//! Append `--json` to any subcommand for machine-readable output.

use capacity::experiment::{EmpiricalConfig, EmpiricalRunner};
use capacity::sweep::{self, AdaptivePolicy};
use capacity::world::pbx_node;
use capacity::{farm, figures, policy, report, table1};
use des::SimDuration;
use faults::{FaultKind, FaultSchedule};
use loadgen::RetryPolicy;
use netsim::topology::nodes;
use overload::ControlLaw;

/// Every flag the parser reads is named here, one with a value by an
/// upper-case placeholder after it: [`usage_flag`] answers from this text,
/// so a flag cannot be accepted without being documented.
const USAGE: &str = "\
usage: capacity-cli <fig3|table1|fig6|fig7|policy|farm|campaign|scale|run> [--json] [--seed S]
  table1 [--scale X]        scale<1 runs a shortened experiment
  fig6   [--reps R]         replications per sweep point
         [--smoke]          CI-scale grid (3 loads, 2 reps)
         [--ci-target P]    adaptive reps until the 95% CI half-width <= P pp
         [--max-reps R]     per-point budget for --ci-target
  sweeps (fig6/campaign/policy/farm) also take [--threads N] (worker threads)
         and [--progress]   per-cell progress lines on stderr
  fig7   [--population P] [--channels N]
  policy [--erlangs A] [--users U] [--reps R]   per-user call-limit study
  farm   [--erlangs A] [--channels N] [--reps R]  pooled vs split servers
  campaign [--smoke] [--channels N --window S]  overload-control law sweep
  scale  [--smoke] [--subs N --erlangs A --channels C]  population-scale cell
  run    [--erlangs A]      one empirical run, JSON details
         [--channels N --holding S --window S]  pool / call / window overrides
         [--shed-high W --shed-low W --retry-after S]  PBX overload control
         [--retry-max N --retry-base S --retry-cap S]  UAC 503 retry
         [--partition-at S --heal-at S]  cut/heal the PBX uplink
         [--crash-at S --restart-after S]  crash + supervised restart
         [--flash-at S --flash-mult X --flash-dur S]  arrival burst
         [--storm N]  seeded random fault storm (overrides the above)
         [--servers K]  farm of K PBXes, uniform random dispatch";

/// Whether [`USAGE`] names `flag` and, if so, whether it takes a value.
fn usage_flag(flag: &str) -> Option<bool> {
    let mut words = USAGE
        .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
        .filter(|w| !w.is_empty());
    words.find(|w| *w == flag)?;
    Some(
        words
            .next()
            .is_some_and(|w| w.bytes().all(|b| b.is_ascii_uppercase())),
    )
}

/// A command line the parser will not guess at: one line, exit status 2.
fn reject(message: &str) -> ! {
    eprintln!("capacity-cli: {message}");
    std::process::exit(2);
}

/// Print `value` as JSON under `--json`, as the text `render` gives otherwise.
fn emit<T: serde::Serialize>(json: bool, value: &T, render: impl FnOnce(&T) -> String) {
    if json {
        println!("{}", report::to_json(value));
    } else {
        print!("{}", render(value));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A typo must not run the defaults: every flag is one the usage text
    // names, and a flag that takes a value is followed by a number.
    for (i, arg) in args.iter().enumerate().filter(|(_, a)| a.starts_with("--")) {
        let value = args.get(i + 1).and_then(|v| v.parse::<f64>().ok());
        match usage_flag(arg) {
            None => reject(&format!("unknown flag {arg}")),
            Some(true) if value.is_none() => reject(&format!("{arg} needs a numeric value")),
            Some(_) => {}
        }
    }
    let json = args.iter().any(|a| a == "--json");
    let has = |name: &str| args.iter().any(|a| a == name);
    let flag = |name: &str, default: f64| -> f64 {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    // A count is a whole number >= 1: `--reps 0` would print a NaN table,
    // `--reps 2.5` would run 2 and `--threads -3` would mean every core.
    let count = |name: &str, default: u64| -> u64 {
        let v = flag(name, default as f64);
        if v < 1.0 || v.fract() != 0.0 {
            reject(&format!("{name} {v} must be a whole number >= 1"));
        }
        v as u64
    };
    // An offered load of zero or less has no arrival process to draw from.
    if has("--erlangs") && flag("--erlangs", 0.0) <= 0.0 {
        reject(&format!("--erlangs {} must be > 0", flag("--erlangs", 0.0)));
    }
    let seed = flag("--seed", 2015.0) as u64;
    // Sweep subcommands: --threads N sets how many threads the sweep
    // executor runs on; the numbers are identical at any value.
    // --progress prints per-cell lines to stderr, off by default so JSON
    // pipelines stay clean.
    if has("--threads") {
        des::pool::configure(count("--threads", 1) as usize);
    }
    sweep::show_progress(has("--progress"));

    match args.first().map(String::as_str) {
        Some("fig3") => {
            let curves = figures::fig3(260);
            emit(json, &curves, |c| report::render_fig3(c, 10));
        }
        Some("table1") => {
            let scale = flag("--scale", 1.0);
            let rows = if (scale - 1.0).abs() < 1e-9 {
                table1::table1(seed)
            } else {
                table1::table1_scaled(seed, scale)
            };
            emit(json, &rows, |r| report::render_table1(r));
        }
        Some("fig6") => {
            // --smoke shrinks the sweep to a CI-scale grid; --ci-target
            // switches to adaptive replication (reps becomes the minimum,
            // --max-reps the per-point budget).
            let smoke = has("--smoke");
            let loads = if smoke {
                vec![140.0, 200.0, 260.0]
            } else {
                figures::fig6_default_loads()
            };
            let reps = count("--reps", if smoke { 2 } else { 5 });
            let max_reps = count("--max-reps", reps.max(2) * 16);
            if max_reps < reps {
                reject(&format!("--max-reps {max_reps} must be >= --reps {reps}"));
            }
            let ci_target = flag("--ci-target", 0.0);
            let points = if ci_target > 0.0 {
                let policy = AdaptivePolicy {
                    ci_target,
                    min_reps: reps.max(2),
                    max_reps,
                };
                figures::fig6_adaptive(&loads, policy, seed)
            } else {
                figures::fig6(&loads, reps, seed)
            };
            emit(json, &points, |p| report::render_fig6(p));
        }
        Some("fig7") => {
            let pop = count("--population", 8000);
            let channels = flag("--channels", 165.0) as u32;
            let curves = figures::fig7(pop, channels);
            emit(json, &curves, |c| report::render_fig7(c, pop, channels, 5));
        }
        Some("campaign") => {
            let smoke = args.iter().any(|a| a == "--smoke");
            let mut cc = if smoke {
                capacity::campaign::CampaignConfig::smoke(seed)
            } else {
                capacity::campaign::CampaignConfig::evaluation_default(seed)
            };
            let channels = flag("--channels", 0.0) as u32;
            if channels > 0 {
                cc.channels = channels;
            }
            let window = flag("--window", 0.0);
            if window > 0.0 {
                cc.placement_window_s = window;
            }
            let result = capacity::campaign::run_campaign(&cc);
            emit(json, &result, capacity::campaign::render_campaign);
        }
        Some("policy") => {
            let erlangs = flag("--erlangs", 220.0);
            let users = flag("--users", 60.0) as u32;
            let reps = count("--reps", 3);
            let limits = [None, Some(4), Some(3), Some(2), Some(1)];
            let rows = policy::policy_study(erlangs, users, &limits, reps, seed);
            emit(json, &rows, |r| policy::render_policy(r));
        }
        Some("farm") => {
            let erlangs = flag("--erlangs", 150.0);
            let total = flag("--channels", 164.0) as u32;
            let reps = count("--reps", 5);
            let rows = farm::farm_study(erlangs, total, &[1, 2, 4], reps, seed);
            emit(json, &rows, |r| farm::render_farm(erlangs, r));
        }
        Some("scale") => {
            // Population-scale cell: finite-source arrivals over N
            // subscribers with registration churn, closed against the
            // log-space Engset analytics.
            let smoke = args.iter().any(|a| a == "--smoke");
            let subs = count("--subs", if smoke { 20_000 } else { 1_000_000 });
            let erlangs = flag("--erlangs", if smoke { 20.0 } else { 150.0 });
            let mut cfg = EmpiricalConfig::population_scale(subs, erlangs, seed);
            if smoke {
                // Compressed cell: short holds and window, a wheel that
                // visibly turns, a pool sized to show some blocking.
                cfg.holding = loadgen::HoldingDist::Fixed(10.0);
                cfg.placement_window_s = 30.0;
                cfg.channels = 24;
                let pop = cfg.population.as_mut().expect("population cell");
                *pop = loadgen::PopulationConfig::for_offered_load(subs, erlangs, 10.0);
                pop.profile = loadgen::DiurnalProfile::campus_day_compressed(30.0);
                pop.reg_expiry_s = 60.0;
                pop.churn_buckets = 16;
            }
            cfg.channels = flag("--channels", f64::from(cfg.channels)) as u32;
            emit(json, &EmpiricalRunner::run(cfg.clone()), |result| {
                let engset = teletraffic::engset::engset_blocking_for_load_large(
                    subs,
                    cfg.channels,
                    teletraffic::Erlangs(erlangs),
                )
                .unwrap_or(f64::NAN);
                let pop = cfg.population.as_ref().expect("population cell");
                let wheel_rate = subs as f64 / pop.reg_expiry_s;
                format!(
                    "population-scale cell: N = {subs}, peak offered = {erlangs:.1} E\n  \
                     calls: attempted {}  completed {}  blocked {}  (Pb {:.4})\n  \
                     steady-state Pb {:.4} | Engset(N={subs}) {engset:.4} | Erlang-B {:.4}\n  \
                     churn: {wheel_rate:.1} re-REGISTER/s steady | SIP messages {}\n  \
                     engine: {} events, {:.0} events/s, {:.2} s wall\n",
                    result.attempted,
                    result.completed,
                    result.blocked,
                    result.observed_pb,
                    result.steady_pb,
                    result.analytic_pb,
                    result.monitor.sip_total,
                    result.events_processed,
                    result.events_per_sec,
                    result.wall_clock_s
                )
            });
        }
        Some("run") => {
            // A known flag, but not here: the old sharded invocation must
            // not become a silent single-thread run.
            if has("--threads") {
                reject("run: within-run sharding is retired; --threads sizes sweep workers on fig6/campaign/policy/farm");
            }
            let erlangs = flag("--erlangs", 40.0);
            let mut cfg = EmpiricalConfig::table1(erlangs, seed);
            cfg.channels = flag("--channels", f64::from(cfg.channels)) as u32;
            let holding = flag("--holding", 0.0);
            if holding > 0.0 {
                cfg.holding = loadgen::HoldingDist::Fixed(holding);
            }
            cfg.placement_window_s = flag("--window", cfg.placement_window_s);
            cfg.servers = count("--servers", u64::from(cfg.servers)) as u32;

            // Overload control: --shed-high enables PBX shedding.
            // Load is capped at 1, and the watermarks must leave a dead band
            // or the law engages and releases on alternate INVITEs.
            let shed_high = flag("--shed-high", 0.0);
            if shed_high > 0.0 {
                let shed_low = flag("--shed-low", (shed_high - 0.2).max(0.0));
                if shed_high > 1.0 {
                    reject(&format!(
                        "--shed-high {shed_high} is above 1: load never reaches it"
                    ));
                }
                if shed_low >= shed_high {
                    reject(&format!(
                        "--shed-low {shed_low} must be below --shed-high {shed_high}"
                    ));
                }
                cfg.overload_law = Some(ControlLaw::Hysteresis {
                    high_watermark: shed_high,
                    low_watermark: shed_low,
                    retry_after: SimDuration::from_secs_f64(flag("--retry-after", 2.0)),
                });
            }
            // UAC retry: --retry-max enables 503 retries with backoff.
            let retry_max = flag("--retry-max", 0.0) as u32;
            if retry_max > 0 {
                cfg.retry = Some(RetryPolicy {
                    max_retries: retry_max,
                    base_backoff: SimDuration::from_secs_f64(flag("--retry-base", 2.0)),
                    max_backoff: SimDuration::from_secs_f64(flag("--retry-cap", 32.0)),
                });
            }
            // Scheduled faults (0 = not scheduled).
            let mut sched = FaultSchedule::new();
            let partition_at = flag("--partition-at", 0.0);
            if partition_at > 0.0 {
                sched = sched.at(
                    partition_at,
                    FaultKind::LinkPartition {
                        a: pbx_node(0),
                        b: nodes::SWITCH,
                    },
                );
                let heal_at = flag("--heal-at", partition_at + 15.0);
                sched = sched.at(
                    heal_at,
                    FaultKind::LinkHeal {
                        a: pbx_node(0),
                        b: nodes::SWITCH,
                    },
                );
            }
            let crash_at = flag("--crash-at", 0.0);
            if crash_at > 0.0 {
                sched = sched.at(
                    crash_at,
                    FaultKind::PbxCrash {
                        pbx: 0,
                        restart_after: SimDuration::from_secs_f64(flag("--restart-after", 5.0)),
                    },
                );
            }
            let flash_at = flag("--flash-at", 0.0);
            if flash_at > 0.0 {
                sched = sched.at(
                    flash_at,
                    FaultKind::FlashCrowd {
                        rate_multiplier: flag("--flash-mult", 4.0),
                        duration: SimDuration::from_secs_f64(flag("--flash-dur", 10.0)),
                    },
                );
            }
            let storm = flag("--storm", 0.0) as usize;
            if storm > 0 {
                let pbx_nodes: Vec<_> = (0..cfg.servers).map(pbx_node).collect();
                sched = FaultSchedule::random_storm(
                    seed,
                    cfg.placement_window_s,
                    storm,
                    &pbx_nodes,
                    nodes::SWITCH,
                );
            }
            let robustness = !sched.is_empty() || cfg.overload_law.is_some() || cfg.retry.is_some();
            cfg.faults = sched;
            emit(json || !robustness, &EmpiricalRunner::run(cfg), |r| {
                report::render_robustness(r) + &report::render_throughput(r)
            });
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
