//! `hb-perfbench`: the simulator benchmark.
//!
//! ```text
//! hb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation is one run in a fresh process (`VmHWM` covers the whole
//! process and never falls). With `--trace 0` it sets up and runs the
//! workload's engine call for about `--seconds` seconds, cycling through
//! four seeded inputs in whole rounds, and prints the end-to-end metrics
//! as medians. With `--trace 1` it makes one layer-timed pass instead and
//! prints the per-layer metrics (see `traced.rs`). Every run checks the
//! program's outputs; the last line of standard output is one JSON
//! object: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 when every check passed, 1 when one failed, 2 on a
//! usage error.

mod check;
mod setup;
mod traced;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::Checks;
use hb_netsim::{Injection, SimStats};
use setup::{execute, set_up, Mode, Workload};

/// Inputs per run, each from its own seed drawn from `--seed`. The
/// engine calls cycle through them in whole rounds, so a run's metrics
/// do not hang on one draw of the traffic (the route table's size, for
/// one, depends on the length of the first route).
pub const INPUTS: usize = 4;

/// Rounds over the inputs made even when `--seconds` is shorter. A
/// further round starts only when, at the pace of the last one, it ends
/// within `--seconds`.
const MIN_ROUNDS: usize = 1;

/// Each engine call comes with a fresh set-up of its input, and after
/// the call set-up is repeated for this share of the call's CPU time;
/// `setup_s` is the median of all set-ups of the run.
const SETUP_SHARE: f64 = 0.1;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is not in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One run's result line.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Counts one engine call's packets and checks its stats.
    pub fn record(&mut self, stats: &SimStats, injections: &[Injection]) {
        let offered = injections.len() as u64;
        self.attempted += offered;
        self.failed += offered.saturating_sub(stats.delivered);
        self.checks.stats(stats, injections);
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_number(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed reads 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The seeds of a run's inputs: `INPUTS` of them, drawn from `--seed`.
pub fn input_seeds(seed: u64) -> [u64; INPUTS] {
    let mut rng = setup::SplitMix::new(seed);
    std::array::from_fn(|_| rng.next_u64())
}

/// The untraced run: end-to-end metrics.
fn untraced(a: &Args) -> RunResult {
    let w = a.workload;
    let mut res = RunResult::default();
    let seeds = input_seeds(a.seed);

    let budget = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    let mut round_start = start;
    let (mut setups, mut cpus, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut firsts: Vec<(SimStats, Option<String>)> = Vec::new();
    let mut peak_rss_mb = None;
    let mut i = 0;
    loop {
        if i > 0 && i % INPUTS == 0 {
            let now = Instant::now();
            let round = now - round_start;
            round_start = now;
            if i >= MIN_ROUNDS * INPUTS && now - start + round > budget {
                break;
            }
        }
        let k = i % INPUTS;
        i += 1;
        let (inp, times) = set_up(w, seeds[k]);
        setups.push(times.cpu_s);
        let out = execute(w, &inp, Mode::AsDefined);
        // The peak of one set-up and one engine call in a fresh process,
        // which is what one `hbnet` invocation holds. Later calls in the
        // same process add heap fragmentation that no single invocation
        // has, and that varies with the order of the inputs.
        peak_rss_mb.get_or_insert_with(vm_hwm_mb);
        let cpu = out.cpu_s;
        cpus.push(cpu);
        rates.push(out.stats.delivered as f64 * out.stats.avg_hops / cpu);
        res.record(&out.stats, &inp.injections);
        if let Some((stats, report)) = firsts.get(k) {
            res.checks
                .expect(*stats == out.stats && *report == out.report, || {
                    format!("iteration {i} differs from the first on input {k}")
                });
        } else {
            firsts.push((out.stats, out.report));
        }
        drop(inp);
        // More set-ups fill a fixed share of each iteration, so `setup_s`
        // and `run_cpu_s` sample the same stretch of time.
        let mut more = 0.0;
        while more < SETUP_SHARE * cpu {
            let t = set_up(w, seeds[k]).1.cpu_s;
            setups.push(t);
            more += t;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    // Route checks last, on fresh inputs.
    for &seed in &seeds {
        let (inp, _) = set_up(w, seed);
        res.checks.routes(&inp, w, seed);
        if w == Workload::Churn {
            check::replay_timeline(&inp, &mut res.checks);
        }
    }

    let per_input =
        |f: fn(&SimStats) -> f64| median(&firsts.iter().map(|(s, _)| f(s)).collect::<Vec<_>>());
    println!(
        "{} seed {}: {} inputs, {} set-ups, {} engine calls over {:.1} s",
        w.name(),
        a.seed,
        INPUTS,
        setups.len(),
        cpus.len(),
        elapsed
    );
    res.metric("setup_s", median(&setups), "s");
    res.metric("run_cpu_s", median(&cpus), "s");
    res.metric("hops_per_cpu_s", median(&rates), "1/s");
    res.metric("peak_rss_mb", peak_rss_mb.unwrap_or(0.0), "MiB");
    res.metric("sim_cycles", per_input(|s| s.cycles as f64), "cycles");
    res.metric("avg_latency_cycles", per_input(|s| s.avg_latency), "cycles");
    res
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hb-perfbench: {e}");
            eprintln!(
                "usage: hb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let res = if args.trace {
        traced::run(&args)
    } else {
        untraced(&args)
    };
    for (name, value, unit) in &res.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    for f in &res.checks.failures {
        println!("  CHECK FAILED: {f}");
    }
    println!(
        "  attempted {} packets, failed {}, checks {}",
        res.attempted,
        res.failed,
        if res.checks.failures.is_empty() {
            "passed".to_string()
        } else {
            format!("{} FAILED", res.checks.failures.len())
        }
    );
    println!("{}", res.json());
    if res.checks.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
