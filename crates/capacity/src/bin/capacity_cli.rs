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

use capacity::experiment::{ConfigError, EmpiricalConfig, EmpiricalRunner, RunResult};
use capacity::sweep::{self, AdaptivePolicy};
use capacity::world::pbx_node;
use capacity::{farm, figures, policy, report, table1};
use des::SimDuration;
use faults::{FaultKind, FaultSchedule};
use loadgen::RetryPolicy;
use netsim::topology::nodes;
use overload::ControlLaw;
use std::str::FromStr;

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
  sweeps (table1/fig6/campaign/policy/farm) also take [--threads N] (worker threads)
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

/// The command line, read flag by flag: each value is parsed as what it
/// means or refused. Ranges are [`EmpiricalConfig::validate`]'s.
struct Flags(Vec<String>);

impl Flags {
    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The value after `name` as a `T` that `ok` accepts, or `default`
    /// without the flag; any other value is refused ("`name` `v` must be
    /// `what`"). A whole-number flag so refuses `-3` and `2.5` instead of
    /// casting them to 0 or 2.
    fn get<T: FromStr>(&self, name: &str, default: T, what: &str, ok: impl Fn(&T) -> bool) -> T {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return default;
        };
        let v = self.0.get(i + 1).map_or("", String::as_str);
        match v.parse() {
            Ok(n) if ok(&n) => n,
            _ => reject(&format!("{name} {v} must be {what}")),
        }
    }

    fn num(&self, name: &str, default: f64) -> f64 {
        self.get(name, default, "a number", |_| true)
    }

    /// Seconds: finite and >= 0 (`SimDuration::from_secs_f64` would
    /// silently turn a negative or NaN into 0).
    fn secs(&self, name: &str, default: f64) -> f64 {
        self.get(name, default, "finite and >= 0 s", |v| {
            v.is_finite() && *v >= 0.0
        })
    }

    fn duration(&self, name: &str, default: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.secs(name, default))
    }

    fn int<T: FromStr>(&self, name: &str, default: T) -> T {
        let what = format!("a whole number that fits a {}", std::any::type_name::<T>());
        self.get(name, default, &what, |_| true)
    }

    /// A count: `--reps 0` would print a NaN table and `--threads 0`
    /// would mean every core.
    fn count<T: FromStr + PartialOrd + From<u8>>(&self, name: &str, default: T) -> T {
        self.get(name, default, "a whole number >= 1", |n| *n >= T::from(1))
    }
}

/// The value of a library call that checks its configurations, or the
/// refusal: a range is [`EmpiricalConfig::validate`]'s to state, never the
/// command line's.
fn accepted<T>(result: Result<T, ConfigError>) -> T {
    result.unwrap_or_else(|refused| reject(&refused.to_string()))
}

/// Run `cfg` if [`EmpiricalConfig::validate`] accepts it; refuse it otherwise.
fn run(cfg: EmpiricalConfig) -> RunResult {
    accepted(cfg.validate());
    EmpiricalRunner::run(cfg)
}

fn main() {
    let flags = Flags(std::env::args().skip(1).collect());
    let args = &flags.0;
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
    let json = flags.has("--json");
    let seed = flags.int("--seed", 2015u64);
    // Sweep subcommands: --threads N sets how many threads the sweep
    // executor runs on; the numbers are identical at any value.
    // --progress prints per-cell lines to stderr, off by default so JSON
    // pipelines stay clean.
    if flags.has("--threads") {
        des::pool::configure(flags.count("--threads", 1usize));
    }
    sweep::show_progress(flags.has("--progress"));

    match args.first().map(String::as_str) {
        Some("fig3") => {
            let curves = figures::fig3(260);
            emit(json, &curves, |c| report::render_fig3(c, 10));
        }
        Some("table1") => {
            let rows = accepted(table1::table1(seed, flags.num("--scale", 1.0)));
            emit(json, &rows, |r| report::render_table1(r));
        }
        Some("fig6") => {
            // --smoke shrinks the sweep to a CI-scale grid; --ci-target
            // switches to adaptive replication (reps becomes the minimum,
            // --max-reps the per-point budget).
            let smoke = flags.has("--smoke");
            let loads = if smoke {
                vec![140.0, 200.0, 260.0]
            } else {
                figures::fig6_default_loads()
            };
            let reps = flags.count("--reps", if smoke { 2 } else { 5 });
            let max_reps = flags.count("--max-reps", reps.max(2) * 16);
            if max_reps < reps {
                reject(&format!("--max-reps {max_reps} must be >= --reps {reps}"));
            }
            let ci_target = flags.num("--ci-target", 0.0);
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
            let pop = flags.count("--population", 8000);
            let channels = flags.int("--channels", 165);
            let curves = figures::fig7(pop, channels);
            emit(json, &curves, |c| report::render_fig7(c, pop, channels, 5));
        }
        Some("campaign") => {
            let mut cc = if flags.has("--smoke") {
                capacity::campaign::CampaignConfig::smoke(seed)
            } else {
                capacity::campaign::CampaignConfig::evaluation_default(seed)
            };
            // The engineered capacity is a load the pool carries at 1 %
            // blocking, so the pool holds at least one channel.
            cc.channels = flags.count("--channels", cc.channels);
            cc.placement_window_s = flags.secs("--window", cc.placement_window_s);
            accepted(cc.validate());
            let result = capacity::campaign::run_campaign(&cc);
            emit(json, &result, capacity::campaign::render_campaign);
        }
        Some("policy") => {
            let erlangs = flags.num("--erlangs", 220.0);
            let users = flags.count("--users", 60);
            let reps = flags.count("--reps", 3);
            let limits = [None, Some(4), Some(3), Some(2), Some(1)];
            let rows = accepted(policy::policy_study(erlangs, users, &limits, reps, seed));
            emit(json, &rows, |r| policy::render_policy(r));
        }
        Some("farm") => {
            let erlangs = flags.num("--erlangs", 150.0);
            let total = flags.int("--channels", 164);
            let reps = flags.count("--reps", 5);
            let rows = accepted(farm::farm_study(erlangs, total, &[1, 2, 4], reps, seed));
            emit(json, &rows, |r| farm::render_farm(erlangs, r));
        }
        Some("scale") => {
            // Population-scale cell: finite-source arrivals over N
            // subscribers with registration churn, closed against the
            // log-space Engset analytics.
            let smoke = flags.has("--smoke");
            let subs = flags.count("--subs", if smoke { 20_000 } else { 1_000_000 });
            let erlangs = flags.num("--erlangs", if smoke { 20.0 } else { 150.0 });
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
            cfg.channels = flags.int("--channels", cfg.channels);
            emit(json, &run(cfg.clone()), |result| {
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
            if flags.has("--threads") {
                reject("run: within-run sharding is retired; --threads sizes sweep workers on table1/fig6/campaign/policy/farm");
            }
            let mut cfg = EmpiricalConfig::table1(flags.num("--erlangs", 40.0), seed);
            cfg.channels = flags.int("--channels", cfg.channels);
            if flags.has("--holding") {
                cfg.holding = loadgen::HoldingDist::Fixed(flags.secs("--holding", 0.0));
            }
            cfg.placement_window_s = flags.secs("--window", cfg.placement_window_s);
            cfg.servers = flags.count("--servers", cfg.servers);

            // Overload control: --shed-high enables PBX shedding.
            let shed_high = flags.num("--shed-high", 0.0);
            if shed_high > 0.0 {
                cfg.overload_law = Some(ControlLaw::Hysteresis {
                    high_watermark: shed_high,
                    low_watermark: flags.num("--shed-low", (shed_high - 0.2).max(0.0)),
                    retry_after: flags.duration("--retry-after", 2.0),
                });
            }
            // UAC retry: --retry-max enables 503 retries with backoff.
            let retry_max = flags.int("--retry-max", 0u32);
            if retry_max > 0 {
                cfg.retry = Some(RetryPolicy {
                    max_retries: retry_max,
                    base_backoff: flags.duration("--retry-base", 2.0),
                    max_backoff: flags.duration("--retry-cap", 32.0),
                });
            }
            // Scheduled faults (0 = not scheduled).
            let mut sched = FaultSchedule::new();
            let partition_at = flags.secs("--partition-at", 0.0);
            if partition_at > 0.0 {
                let (a, b) = (pbx_node(0), nodes::SWITCH);
                let heal_at = flags.secs("--heal-at", partition_at + 15.0);
                sched = sched
                    .at(partition_at, FaultKind::LinkPartition { a, b })
                    .at(heal_at, FaultKind::LinkHeal { a, b });
            }
            let crash_at = flags.secs("--crash-at", 0.0);
            if crash_at > 0.0 {
                let restart_after = flags.duration("--restart-after", 5.0);
                let pbx = 0;
                sched = sched.at(crash_at, FaultKind::PbxCrash { pbx, restart_after });
            }
            let flash_at = flags.secs("--flash-at", 0.0);
            if flash_at > 0.0 {
                let rate_multiplier = flags.num("--flash-mult", 4.0);
                let duration = flags.duration("--flash-dur", 10.0);
                let flash = FaultKind::FlashCrowd {
                    rate_multiplier,
                    duration,
                };
                sched = sched.at(flash_at, flash);
            }
            let storm = flags.int("--storm", 0usize);
            if storm > 0 {
                let pbxes: Vec<_> = (0..cfg.servers).map(pbx_node).collect();
                let window = cfg.placement_window_s;
                sched = FaultSchedule::random_storm(seed, window, storm, &pbxes, nodes::SWITCH);
            }
            let robustness = !sched.is_empty() || cfg.overload_law.is_some() || cfg.retry.is_some();
            cfg.faults = sched;
            emit(json || !robustness, &run(cfg), |r| {
                report::render_robustness(r) + &report::render_throughput(r)
            });
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
