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
use capacity::sweep::{AdaptivePolicy, ProgressMeter};
use capacity::world::pbx_node;
use capacity::{farm, figures, policy, report, table1};
use des::SimDuration;
use faults::{FaultKind, FaultSchedule};
use loadgen::RetryPolicy;
use netsim::topology::nodes;
use overload::ControlLaw;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let has = |name: &str| args.iter().any(|a| a == name);
    let flag = |name: &str, default: f64| -> f64 {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let seed = flag("--seed", 2015.0) as u64;
    // Sweep subcommands: --threads N caps the process-wide worker budget
    // the sweep executor draws from; the numbers are identical at any
    // value. --progress prints per-cell lines to stderr, off by default
    // so JSON pipelines stay clean.
    let sweep_threads = flag("--threads", 0.0) as usize;
    if sweep_threads > 0 {
        des::pool::configure(sweep_threads);
    }
    let progress = has("--progress");

    match args.first().map(String::as_str) {
        Some("fig3") => {
            let curves = figures::fig3(260);
            if json {
                println!("{}", report::to_json(&curves));
            } else {
                print!("{}", report::render_fig3(&curves, 10));
            }
        }
        Some("table1") => {
            let scale = flag("--scale", 1.0);
            let rows = if (scale - 1.0).abs() < 1e-9 {
                table1::table1(seed)
            } else {
                table1::table1_scaled(seed, scale)
            };
            if json {
                println!("{}", report::to_json(&rows));
            } else {
                print!("{}", report::render_table1(&rows));
            }
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
            let reps = flag("--reps", if smoke { 2.0 } else { 5.0 }) as u64;
            let ci_target = flag("--ci-target", 0.0);
            let points = if ci_target > 0.0 {
                let policy = AdaptivePolicy {
                    ci_target,
                    min_reps: reps.max(2),
                    max_reps: flag("--max-reps", (reps.max(2) * 16) as f64) as u64,
                };
                let meter = ProgressMeter::for_adaptive(
                    loads.len(),
                    loads.len() as u64 * policy.max_reps,
                    progress,
                );
                figures::fig6_adaptive(&loads, policy, seed, Some(&meter))
            } else {
                let meter = ProgressMeter::new(loads.len(), loads.len() as u64 * reps, progress);
                figures::fig6_with(&loads, reps, seed, Some(&meter))
            };
            if json {
                println!("{}", report::to_json(&points));
            } else {
                print!("{}", report::render_fig6(&points));
            }
        }
        Some("fig7") => {
            let pop = flag("--population", 8000.0) as u64;
            let channels = flag("--channels", 165.0) as u32;
            let curves = figures::fig7(pop, channels);
            if json {
                println!("{}", report::to_json(&curves));
            } else {
                print!("{}", report::render_fig7(&curves, 5));
            }
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
            let cells = cc.algorithms(1.0).len() * cc.multipliers.len();
            let meter = ProgressMeter::new(cells, cells as u64, progress);
            let result = capacity::campaign::run_campaign_with(&cc, Some(&meter));
            if json {
                println!("{}", report::to_json(&result));
            } else {
                print!("{}", capacity::campaign::render_campaign(&result));
            }
        }
        Some("policy") => {
            let erlangs = flag("--erlangs", 220.0);
            let users = flag("--users", 60.0) as u32;
            let reps = flag("--reps", 3.0) as u64;
            let limits = [None, Some(4), Some(3), Some(2), Some(1)];
            let meter =
                ProgressMeter::new(limits.len(), limits.len() as u64 * reps.max(1), progress);
            let rows = policy::policy_study_with(erlangs, users, &limits, reps, seed, Some(&meter));
            if json {
                println!("{}", report::to_json(&rows));
            } else {
                print!("{}", policy::render_policy(&rows));
            }
        }
        Some("farm") => {
            let erlangs = flag("--erlangs", 150.0);
            let total = flag("--channels", 164.0) as u32;
            let reps = flag("--reps", 5.0) as u64;
            let layouts = [1, 2, 4];
            let meter =
                ProgressMeter::new(layouts.len(), layouts.len() as u64 * reps.max(1), progress);
            let rows = farm::farm_study_with(erlangs, total, &layouts, reps, seed, Some(&meter));
            if json {
                println!("{}", report::to_json(&rows));
            } else {
                print!("{}", farm::render_farm(erlangs, &rows));
            }
        }
        Some("scale") => {
            // Population-scale cell: finite-source arrivals over N
            // subscribers with registration churn, closed against the
            // log-space Engset analytics.
            let smoke = args.iter().any(|a| a == "--smoke");
            let subs = flag("--subs", if smoke { 20_000.0 } else { 1_000_000.0 }) as u64;
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
            let result = EmpiricalRunner::run(cfg.clone());
            if json {
                println!("{}", report::to_json(&result));
            } else {
                let engset = teletraffic::engset::engset_blocking_for_load_large(
                    subs,
                    cfg.channels,
                    teletraffic::Erlangs(erlangs),
                )
                .unwrap_or(f64::NAN);
                let pop = cfg.population.as_ref().expect("population cell");
                let wheel_rate = subs as f64 / pop.reg_expiry_s;
                println!("population-scale cell: N = {subs}, peak offered = {erlangs:.1} E");
                println!(
                    "  calls: attempted {}  completed {}  blocked {}  (Pb {:.4})",
                    result.attempted, result.completed, result.blocked, result.observed_pb
                );
                println!(
                    "  steady-state Pb {:.4} | Engset(N={subs}) {:.4} | Erlang-B {:.4}",
                    result.steady_pb, engset, result.analytic_pb
                );
                println!(
                    "  churn: {wheel_rate:.1} re-REGISTER/s steady | SIP messages {}",
                    result.monitor.sip_total
                );
                println!(
                    "  engine: {} events, {:.0} events/s, {:.2} s wall",
                    result.events_processed, result.events_per_sec, result.wall_clock_s
                );
            }
        }
        Some("run") => {
            // Unknown flags are otherwise ignored, which would turn the old
            // sharded invocation into a silent single-thread run.
            if has("--threads") {
                eprintln!(
                    "capacity-cli run: within-run sharding is retired; --threads sizes sweep workers on fig6/campaign/policy/farm"
                );
                std::process::exit(2);
            }
            let erlangs = flag("--erlangs", 40.0);
            let mut cfg = EmpiricalConfig::table1(erlangs, seed);
            cfg.channels = flag("--channels", f64::from(cfg.channels)) as u32;
            let holding = flag("--holding", 0.0);
            if holding > 0.0 {
                cfg.holding = loadgen::HoldingDist::Fixed(holding);
            }
            cfg.placement_window_s = flag("--window", cfg.placement_window_s);
            cfg.servers = flag("--servers", f64::from(cfg.servers)) as u32;

            // Overload control: --shed-high enables PBX shedding.
            let shed_high = flag("--shed-high", 0.0);
            if shed_high > 0.0 {
                cfg.overload_law = Some(ControlLaw::Hysteresis {
                    high_watermark: shed_high,
                    low_watermark: flag("--shed-low", (shed_high - 0.2).max(0.0)),
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
            let result = EmpiricalRunner::run(cfg);
            if json || !robustness {
                println!("{}", report::to_json(&result));
            } else {
                print!("{}", report::render_robustness(&result));
                print!("{}", report::render_throughput(&result));
            }
        }
        _ => {
            eprintln!(
                "usage: capacity-cli <fig3|table1|fig6|fig7|policy|farm|campaign|scale|run> [--json] [--seed S]"
            );
            eprintln!("  table1 [--scale X]        scale<1 runs a shortened experiment");
            eprintln!("  fig6   [--reps R]         replications per sweep point");
            eprintln!("         [--smoke]          CI-scale grid (3 loads, 2 reps)");
            eprintln!(
                "         [--ci-target P]    adaptive reps until the 95% CI half-width <= P pp"
            );
            eprintln!("         [--max-reps R]     per-point budget for --ci-target");
            eprintln!(
                "  sweeps (fig6/campaign/policy/farm) also take [--threads N] (worker budget)"
            );
            eprintln!("         and [--progress]   per-cell progress lines on stderr");
            eprintln!("  fig7   [--population P] [--channels N]");
            eprintln!("  policy [--erlangs A] [--users U]   per-user call-limit study");
            eprintln!("  farm   [--erlangs A] [--channels N] [--reps R]  pooled vs split servers");
            eprintln!("  campaign [--smoke] [--channels N --window S]  overload-control law sweep");
            eprintln!(
                "  scale  [--smoke] [--subs N --erlangs A --channels C]  population-scale cell"
            );
            eprintln!("  run    [--erlangs A]      one empirical run, JSON details");
            eprintln!(
                "         [--channels N --holding S --window S]  pool / call / window overrides"
            );
            eprintln!(
                "         [--shed-high W --shed-low W --retry-after S]  PBX overload control"
            );
            eprintln!("         [--retry-max N --retry-base S --retry-cap S]  UAC 503 retry");
            eprintln!("         [--partition-at S --heal-at S]  cut/heal the PBX uplink");
            eprintln!("         [--crash-at S --restart-after S]  crash + supervised restart");
            eprintln!("         [--flash-at S --flash-mult X --flash-dur S]  arrival burst");
            eprintln!("         [--storm N]  seeded random fault storm (overrides the above)");
            eprintln!("         [--servers K]  farm of K PBXes, uniform random dispatch");
            std::process::exit(2);
        }
    }
}
