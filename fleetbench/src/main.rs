//! fleetbench: end-to-end and per-layer performance of the simulated
//! RMC2000 serving fleet (see README.md).
//!
//! With `--workload NAME` it measures one workload and prints, as its last
//! line, one JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). Without `--workload` it runs every
//! workload, each in a child process of its own, and prints every metric;
//! `--check` then compares the exact metrics with `expected.json` and
//! `--bless` rewrites that file.

mod json;
mod trace;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::process::{Command, ExitCode};
use std::time::Instant;

use rmc2000::serve::build_serve_firmware;
use rmc2000::{
    build_secure_firmware, ClientOutcome, FleetFirmware, FleetRun, FleetSpec, GuestClient,
};

use trace::{Layer, Ledger, Traced};
use workload::Workload;

/// A reported metric. Exact metrics come from virtual time, guest cycles
/// or counts and repeat bit for bit at a given seed; the others are host
/// measurements.
struct Metric {
    name: &'static str,
    unit: &'static str,
    exact: bool,
}

const fn host(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        exact: true,
    }
}

/// Reported with `--trace 0`.
const END_TO_END: [Metric; 6] = [
    host("wall_s", "s"),
    host("host_s_per_vs", "s/vs"),
    host("setup_s", "s"),
    host("peak_rss_mb", "MB"),
    exact("sessions_per_vs", "1/vs"),
    exact("guest_cycles_per_byte", "cycles/B"),
];

/// Reported with `--trace 1`.
const PER_LAYER: [Metric; 62] = [
    host("setup.dcc_s", "s"),
    exact("dcc.code_bytes", "B"),
    host("fleet.boot_s", "s"),
    host("fleet.run_epoch_s", "s"),
    exact("fleet.epochs_run", "count"),
    host("fleet.us_per_epoch", "us"),
    host("rabbit.mips_in_epoch", "MIPS"),
    host("fleet.fast_forward_s", "s"),
    exact("fleet.ff_epochs", "count"),
    exact("fleet.ff_hit_frac", "ratio"),
    host("fleet.probes_s", "s"),
    host("faults.apply_s", "s"),
    exact("faults.applied", "count"),
    exact("board.skip_batches", "count"),
    exact("rabbit.instructions", "count"),
    exact("board.busy_cycles", "cycles"),
    exact("board.idle_cycles", "cycles"),
    exact("board.busy_frac", "ratio"),
    exact("nic.irqs", "count"),
    exact("nic.rx_frames", "count"),
    exact("nic.tx_frames", "count"),
    exact("nic.rx_bytes", "B"),
    exact("nic.tx_bytes", "B"),
    exact("nic.cmd_errors", "count"),
    exact("net.packets_delivered", "count"),
    exact("net.packets_dropped", "count"),
    exact("net.tcp_retransmits", "count"),
    exact("net.tcp_bytes_delivered", "B"),
    exact("net.packets_corrupted", "count"),
    host("lb.pump_s", "s"),
    exact("lb.peak_waiting", "count"),
    exact("lb.accepts", "count"),
    exact("lb.failovers", "count"),
    exact("lb.failover_us_max", "vus"),
    exact("lb.dead_marks", "count"),
    exact("lb.revivals", "count"),
    exact("lb.stalls", "count"),
    host("client.issl_s", "s"),
    exact("client.issl_calls", "count"),
    host("client.socket_s", "s"),
    exact("client.socket_calls", "count"),
    exact("client.dial_late_us_max", "vus"),
    exact("session.p50_vms", "vms"),
    exact("session.tail_vms", "vms"),
    exact("session.tail_pct", "%"),
    exact("session.samples", "count"),
    exact("sessions.failed_frac", "ratio"),
    exact("guest.sha1_cycles", "cycles"),
    exact("guest.shift_rt_cycles", "cycles"),
    exact("guest.kdf_cycles", "cycles"),
    exact("guest.hmac_cycles", "cycles"),
    exact("guest.aes_cycles", "cycles"),
    exact("guest.nic_isr_cycles", "cycles"),
    exact("guest.other_cycles", "cycles"),
    exact("guest.attributed_frac", "ratio"),
    exact("guest.alerts", "count"),
    host("telemetry.snapshot_s", "s"),
    host("fleet.driver_s", "s"),
    host("driver.other_s", "s"),
    host("trace.coverage", "ratio"),
    host("trace.overhead_frac", "ratio"),
    exact("trace.matches_program", "bool"),
];

/// Host seconds of firmware builds timed for `setup_s` before each run.
const SETUP_SECS: f64 = 0.15;

const USAGE: &str = "usage: fleetbench [--workload NAME] [--seed N] [--seconds S | --runs N] \
                     [--trace 0|1] [--check | --bless]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    runs: Option<usize>,
    trace: bool,
    check: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        runs: None,
        trace: false,
        check: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = Some(val()?),
            "--seed" => a.seed = val()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| bad(&e))?,
            "--runs" => a.runs = Some(val()?.parse().map_err(|e| bad(&e))?),
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--check" => a.check = true,
            "--bless" => a.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.runs == Some(0) || !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--runs and --seconds must be positive".to_string());
    }
    if a.check || a.bless {
        if a.workload.is_some() {
            return Err("--check and --bless run every workload".to_string());
        }
        // Exact metrics need one run each.
        a.runs = Some(1);
    }
    if let Some(w) = &a.workload {
        if !workload::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; one of {:?}",
                workload::NAMES
            ));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = match args.runs {
        Some(n) => format!("runs={n}"),
        None => format!("seconds={}", args.seconds),
    };
    println!(
        "fleetbench cores={cores} engine=block_cache seed={} {budget} (single-threaded; one child process per workload)",
        args.seed
    );
    match &args.workload {
        Some(name) => one_workload(name, &args),
        None => suite(&args),
    }
}

// ---------------------------------------------------------------------------
// One workload: end-to-end or per-layer metrics
// ---------------------------------------------------------------------------

/// Whether to start another run.
fn more(args: &Args, done: usize, started: Instant) -> bool {
    match args.runs {
        Some(n) => done < n,
        None => done == 0 || started.elapsed().as_secs_f64() < args.seconds,
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<f64>,
}

fn one_workload(name: &str, args: &Args) -> ExitCode {
    let w = workload::generate(name, args.seed).expect("workload name checked");
    let (table, report) = if args.trace {
        (&PER_LAYER[..], per_layer(&w, args))
    } else {
        (&END_TO_END[..], end_to_end(&w, args))
    };
    let metrics: Vec<String> = table
        .iter()
        .zip(&report.values)
        .map(|(m, v)| {
            assert!(v.is_finite(), "{} is not finite", m.name);
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json::quote(m.name),
                json::quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// `fleet_serve` on every spec of the workload.
fn serve_all(w: &Workload) -> Vec<FleetRun> {
    w.specs.iter().map(rmc2000::fleet_serve).collect()
}

/// The exact facts of one run: identical on every run at a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Facts {
    sessions: u64,
    /// Sessions whose echo came back equal to the bytes sent.
    clean: u64,
    /// Sessions not established, errored, or with a wrong echo.
    failed: u64,
    /// Sessions whose outcome differs from the one the workload scripts:
    /// a clean echo, or for a fault plan's victims the guest's alert.
    unexpected: u64,
    virtual_us: u64,
    cycles: u64,
    idle_cycles: u64,
    instructions: u64,
    echoed: u64,
}

impl Facts {
    fn virtual_s(&self) -> f64 {
        self.virtual_us as f64 / 1e6
    }

    fn busy_cycles(&self) -> u64 {
        self.cycles - self.idle_cycles
    }
}

fn sent_bytes(c: &GuestClient) -> Vec<u8> {
    match c {
        GuestClient::Secure { messages, .. } | GuestClient::Plain { messages } => messages.concat(),
        other => panic!("benchmark workloads use secure and plain clients, not {other:?}"),
    }
}

/// Whether client `i` of a workload echoed cleanly, and whether its
/// outcome is the one the workload scripts: a clean echo, or for a fault
/// plan's victims the guest's alert before any echo.
fn verdict(w: &Workload, i: usize, c: &GuestClient, o: &ClientOutcome) -> (bool, bool) {
    let healthy = o.established && o.error.is_none();
    let clean = healthy && o.echoed == sent_bytes(c);
    let expected = if w.victims.contains(&i) {
        healthy && o.peer_closed && o.echoed.is_empty()
    } else {
        clean
    };
    (clean, expected)
}

fn facts(w: &Workload, runs: &[FleetRun]) -> Facts {
    let mut f = Facts::default();
    for (spec, run) in w.specs.iter().zip(runs) {
        for (i, (c, o)) in spec.clients.iter().zip(&run.outcomes).enumerate() {
            let (clean, expected) = verdict(w, i, c, o);
            f.sessions += 1;
            f.clean += u64::from(clean);
            f.failed += u64::from(!clean);
            f.unexpected += u64::from(!expected);
        }
        f.virtual_us += run.virtual_us;
        f.cycles += run.boards.iter().map(|b| b.cycles).sum::<u64>();
        f.instructions += run.boards.iter().map(|b| b.instructions).sum::<u64>();
        f.idle_cycles += board_sum(&run.snapshot, "board.idle_cycles");
        f.echoed += run.echoed_bytes;
    }
    f
}

/// One line per session whose outcome is not the scripted one.
fn print_unexpected(w: &Workload, runs: &[FleetRun]) {
    for (pass, (spec, run)) in w.specs.iter().zip(runs).enumerate() {
        for (i, (c, o)) in spec.clients.iter().zip(&run.outcomes).enumerate() {
            if !verdict(w, i, c, o).1 {
                println!(
                    "  unexpected: pass {pass} client {i}: established={} error={:?} \
                     peer_closed={} echoed {} of {} B",
                    o.established,
                    o.error,
                    o.peer_closed,
                    o.echoed.len(),
                    sent_bytes(c).len()
                );
            }
        }
    }
}

/// A counter's value in a telemetry text snapshot (0 when absent).
fn counter(snapshot: &str, name: &str) -> u64 {
    snapshot
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(k, _)| *k == name)
        .map_or(0, |(_, v)| v.parse().expect("counter value"))
}

/// `board<i>.<suffix>` summed over every board of a snapshot.
fn board_sum(snapshot: &str, suffix: &str) -> u64 {
    snapshot
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter(|(k, _)| {
            k.strip_prefix("board")
                .and_then(|r| r.split_once('.'))
                .is_some_and(|(idx, rest)| {
                    !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()) && rest == suffix
                })
        })
        .map(|(_, v)| v.parse::<u64>().expect("counter value"))
        .sum()
}

fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let x = q * (s.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

fn build_firmware(spec: &FleetSpec) -> dcc::Build {
    match spec.firmware {
        FleetFirmware::PlainEcho => build_serve_firmware(spec.opts),
        FleetFirmware::SecureEcho { .. } => build_secure_firmware(spec.opts),
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_row(m: &Metric, v: &[f64]) {
    let (q1, med, q3) = quartiles(v);
    println!(
        "  {:<24} {:<9} median {:<14.6} q1 {:<14.6} q3 {:<14.6} n {}",
        m.name,
        m.unit,
        med,
        q1,
        q3,
        v.len()
    );
}

/// Times firmware builds of the workload for at least `secs` seconds.
fn time_builds(w: &Workload, secs: f64, out: &mut Vec<f64>) {
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        std::hint::black_box(build_firmware(&w.specs[0]));
        out.push(t.elapsed().as_secs_f64());
    }
}

fn end_to_end(w: &Workload, args: &Args) -> Report {
    // Set-up samples are taken before every run, so a burst of host noise
    // cannot own all of them.
    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<Facts> = None;
    let mut deterministic = true;
    let started = Instant::now();
    while more(args, walls.len(), started) {
        time_builds(w, SETUP_SECS, &mut setup);
        let t = Instant::now();
        let runs = serve_all(w);
        walls.push(t.elapsed().as_secs_f64());
        let f = facts(w, &runs);
        if first.is_none() {
            print_unexpected(w, &runs);
        }
        deterministic &= *first.get_or_insert(f) == f;
    }
    let f = first.expect("at least one run");
    let n = walls.len() as u64;
    let per_vs: Vec<f64> = walls.iter().map(|s| s / f.virtual_s()).collect();
    let rows: [Vec<f64>; 6] = [
        walls,
        per_vs,
        setup,
        vec![peak_rss_mb()],
        vec![f.clean as f64 / f.virtual_s()],
        vec![f.busy_cycles() as f64 / f.echoed as f64],
    ];
    for (m, v) in END_TO_END.iter().zip(&rows) {
        print_row(m, v);
    }
    println!(
        "  sessions {} per run, {} clean, {} failed ({} unexpected), {:.3} virtual s",
        f.sessions,
        f.clean,
        f.failed,
        f.unexpected,
        f.virtual_s()
    );
    if !deterministic {
        println!("  INVALID: exact facts differ between runs of the same seed");
    }
    Report {
        correct: deterministic && f.unexpected == 0,
        attempted: f.sessions * n,
        failed: f.unexpected * n,
        values: rows.iter().map(|v| median(v)).collect(),
    }
}

// ---------------------------------------------------------------------------
// Per-layer: traced and profiled runs
// ---------------------------------------------------------------------------

/// The guest-cycle classes of the profiled run, in `guest.*` order.
fn guest_classes(p: &trace::Profile) -> [u64; 7] {
    const SHIFT_RT: [&str; 6] = [
        "__shl_loop",
        "__shr_loop",
        "__shl16",
        "__shr16",
        "__shl_go",
        "__shr_go",
    ];
    // The hand-assembly AES module's labels sit in column 0 of its source.
    let module = aes_rabbit::aes128_linked_module();
    let aes: BTreeSet<&str> = module
        .lines()
        .filter(|l| !l.starts_with(|c: char| c.is_whitespace() || c == ';'))
        .filter_map(|l| l.split_once(':').map(|(label, _)| label.trim()))
        .collect();
    let mut out = [0u64; 7];
    for (sym, &cycles) in &p.by_symbol {
        let class = match sym.as_str() {
            "_sha1_run" => 0,
            s if SHIFT_RT.contains(&s) => 1,
            "_kdf_run" => 2,
            "_hmac_run" => 3,
            s if aes.contains(s) => 4,
            "_nic_isr" => 5,
            _ => 6,
        };
        out[class] += cycles;
    }
    out
}

/// Median and the highest percentile with at least ten samples beyond
/// it, by nearest rank: `(p50, tail, tail percentile)`.
fn latency_tail(v: &mut [u64]) -> (u64, u64, f64) {
    v.sort_unstable();
    let n = v.len();
    let rank = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let tail_pct = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n - 1 - rank(p) >= 10)
        .unwrap_or(100.0);
    (v[rank(50.0)], v[rank(tail_pct)], tail_pct)
}

fn per_layer(w: &Workload, args: &Args) -> Report {
    // Untraced and traced runs alternate; host numbers are medians.
    let mut untraced = Vec::new();
    let mut traced_walls = Vec::new();
    let mut ledgers: Vec<Ledger> = Vec::new();
    let mut reference: Vec<FleetRun> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut matches = true;
    let started = Instant::now();
    while more(args, ledgers.len(), started) {
        let t = Instant::now();
        let runs = serve_all(w);
        untraced.push(t.elapsed().as_secs_f64());

        let mut led = Ledger::default();
        let t = Instant::now();
        let tr: Vec<Traced> = w
            .specs
            .iter()
            .map(|s| trace::serve(s, &mut led, false))
            .collect();
        traced_walls.push(t.elapsed().as_secs_f64());
        ledgers.push(led);
        matches &= tr.iter().zip(&runs).all(|(t, r)| t.matches(r));
        if reference.is_empty() {
            reference = runs;
            traced = tr;
        }
    }
    // Guest cycles per function; this run's host time is discarded.
    let mut scratch = Ledger::default();
    let profiled: Vec<Traced> = w
        .specs
        .iter()
        .map(|s| trace::serve(s, &mut scratch, true))
        .collect();
    matches &= profiled.iter().zip(&reference).all(|(t, r)| t.matches(r));

    let f = facts(w, &reference);
    let host_med =
        |layer: Layer| median(&ledgers.iter().map(|l| l.secs(layer)).collect::<Vec<_>>());
    let span_count = |layer: Layer| ledgers[0].spans[layer as usize].count as f64;
    // Telemetry counters summed over the workload's runs: per-board
    // (`board<i>.<suffix>`, summed over boards) and fleet-wide.
    let boards_total = |suffix: &str| -> f64 {
        reference
            .iter()
            .map(|r| board_sum(&r.snapshot, suffix))
            .sum::<u64>() as f64
    };
    let total = |name: &str| -> f64 {
        reference
            .iter()
            .map(|r| counter(&r.snapshot, name))
            .sum::<u64>() as f64
    };
    let counts = traced.iter().fold(trace::Counts::default(), |mut a, t| {
        let c = &t.counts;
        a.epochs_run += c.epochs_run;
        a.instructions_in_epochs += c.instructions_in_epochs;
        a.ff_calls += c.ff_calls;
        a.ff_hits += c.ff_hits;
        a.ff_epochs += c.ff_epochs;
        a.peak_waiting = a.peak_waiting.max(c.peak_waiting);
        a.dial_late_us_max = a.dial_late_us_max.max(c.dial_late_us_max);
        a
    });
    let mut latencies: Vec<u64> = traced
        .iter()
        .flat_map(|t| t.latencies_us.iter().flatten().copied())
        .collect();
    let (p50, tail, tail_pct) = latency_tail(&mut latencies);
    let mut profile = trace::Profile::default();
    for p in profiled.iter().filter_map(|t| t.profile.as_ref()) {
        profile.total += p.total;
        profile.attributed += p.attributed;
        for (s, c) in &p.by_symbol {
            *profile.by_symbol.entry(s.clone()).or_insert(0) += c;
        }
    }
    let guest = guest_classes(&profile);

    let run_epoch_s = host_med(Layer::RunEpoch);
    let coverage: Vec<f64> = ledgers
        .iter()
        .zip(&traced_walls)
        .map(|(l, w)| l.covered().as_secs_f64() / w)
        .collect();
    let other: Vec<f64> = ledgers
        .iter()
        .zip(&traced_walls)
        .map(|(l, w)| w - l.covered().as_secs_f64())
        .collect();
    let failover_us_max = reference
        .iter()
        .flat_map(|r| r.faults.failover_latencies_us.iter().copied())
        .max()
        .unwrap_or(0);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    // Named values, reported in `PER_LAYER` order.
    let named: Vec<(&str, f64)> = vec![
        ("setup.dcc_s", host_med(Layer::Dcc)),
        ("dcc.code_bytes", reference[0].code_size as f64),
        ("fleet.boot_s", host_med(Layer::Boot)),
        ("fleet.run_epoch_s", run_epoch_s),
        ("fleet.epochs_run", counts.epochs_run as f64),
        (
            "fleet.us_per_epoch",
            ratio(run_epoch_s * 1e6, counts.epochs_run as f64),
        ),
        (
            "rabbit.mips_in_epoch",
            ratio(counts.instructions_in_epochs as f64 / 1e6, run_epoch_s),
        ),
        ("fleet.fast_forward_s", host_med(Layer::FastForward)),
        ("fleet.ff_epochs", counts.ff_epochs as f64),
        (
            "fleet.ff_hit_frac",
            ratio(counts.ff_hits as f64, counts.ff_calls as f64),
        ),
        ("fleet.probes_s", host_med(Layer::Probes)),
        ("faults.apply_s", host_med(Layer::Faults)),
        (
            "faults.applied",
            reference
                .iter()
                .map(|r| r.faults.applied.len())
                .sum::<usize>() as f64,
        ),
        ("board.skip_batches", boards_total("board.skip_batches")),
        ("rabbit.instructions", f.instructions as f64),
        ("board.busy_cycles", f.busy_cycles() as f64),
        ("board.idle_cycles", f.idle_cycles as f64),
        (
            "board.busy_frac",
            ratio(f.busy_cycles() as f64, f.cycles as f64),
        ),
        ("nic.irqs", boards_total("net.board.irqs")),
        ("nic.rx_frames", boards_total("net.board.rx_frames")),
        ("nic.tx_frames", boards_total("net.board.tx_frames")),
        ("nic.rx_bytes", boards_total("net.board.rx_bytes")),
        ("nic.tx_bytes", boards_total("net.board.tx_bytes")),
        ("nic.cmd_errors", boards_total("net.board.cmd_errors")),
        ("net.packets_delivered", total("net.packets.delivered")),
        ("net.packets_dropped", total("net.packets.dropped")),
        ("net.tcp_retransmits", total("net.tcp.retransmits")),
        ("net.tcp_bytes_delivered", total("net.tcp.bytes_delivered")),
        ("net.packets_corrupted", total("net.packets.corrupted")),
        ("lb.pump_s", host_med(Layer::LbPump)),
        ("lb.peak_waiting", counts.peak_waiting as f64),
        ("lb.accepts", total("lb.accepts")),
        ("lb.failovers", total("lb.failovers")),
        ("lb.failover_us_max", failover_us_max as f64),
        ("lb.dead_marks", total("lb.dead_marks")),
        ("lb.revivals", total("lb.revivals")),
        ("lb.stalls", total("lb.stalls")),
        ("client.issl_s", host_med(Layer::ClientIssl)),
        ("client.issl_calls", span_count(Layer::ClientIssl)),
        ("client.socket_s", host_med(Layer::ClientSocket)),
        ("client.socket_calls", span_count(Layer::ClientSocket)),
        ("client.dial_late_us_max", counts.dial_late_us_max as f64),
        ("session.p50_vms", p50 as f64 / 1e3),
        ("session.tail_vms", tail as f64 / 1e3),
        ("session.tail_pct", tail_pct),
        ("session.samples", latencies.len() as f64),
        (
            "sessions.failed_frac",
            ratio(f.failed as f64, f.sessions as f64),
        ),
        ("guest.sha1_cycles", guest[0] as f64),
        ("guest.shift_rt_cycles", guest[1] as f64),
        ("guest.kdf_cycles", guest[2] as f64),
        ("guest.hmac_cycles", guest[3] as f64),
        ("guest.aes_cycles", guest[4] as f64),
        ("guest.nic_isr_cycles", guest[5] as f64),
        ("guest.other_cycles", guest[6] as f64),
        (
            "guest.attributed_frac",
            ratio(profile.attributed as f64, profile.total as f64),
        ),
        (
            "guest.alerts",
            reference
                .iter()
                .flat_map(|r| r.boards.iter().flat_map(|b| b.alert_kinds))
                .map(f64::from)
                .sum(),
        ),
        ("telemetry.snapshot_s", host_med(Layer::Snapshot)),
        ("fleet.driver_s", host_med(Layer::Driver)),
        ("driver.other_s", median(&other)),
        ("trace.coverage", median(&coverage)),
        (
            "trace.overhead_frac",
            median(&traced_walls) / median(&untraced) - 1.0,
        ),
        ("trace.matches_program", f64::from(u8::from(matches))),
    ];
    assert_eq!(
        named.len(),
        PER_LAYER.len(),
        "one value per per-layer metric"
    );
    let values: Vec<f64> = PER_LAYER
        .iter()
        .map(|m| {
            let v = named.iter().find(|(n, _)| *n == m.name);
            v.unwrap_or_else(|| panic!("no value for {}", m.name)).1
        })
        .collect();

    let mut all = Ledger::default();
    for l in &ledgers {
        all.merge(l);
    }
    println!(
        "  traced runs {}: wall median {:.4} s (untraced {:.4} s); spans over all traced runs:",
        ledgers.len(),
        median(&traced_walls),
        median(&untraced)
    );
    println!(
        "  {:<22} {:>10} {:>12} {:>10}",
        "span", "count", "total_s", "max_ms"
    );
    for (name, s) in trace::LAYER_NAMES.iter().zip(&all.spans) {
        println!(
            "  {:<22} {:>10} {:>12.4} {:>10.3}",
            name,
            s.count,
            s.total.as_secs_f64(),
            s.max.as_secs_f64() * 1e3
        );
    }
    let mut top: Vec<(&String, &u64)> = profile.by_symbol.iter().collect();
    top.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    let tops: Vec<String> = top
        .iter()
        .take(6)
        .map(|(s, &c)| format!("{s} {:.1}%", 100.0 * ratio(c as f64, profile.total as f64)))
        .collect();
    println!("  guest top functions: {}", tops.join(", "));
    if matches {
        for (m, v) in PER_LAYER.iter().zip(&values) {
            println!("  {:<24} {:<7} {v}", m.name, m.unit);
        }
    } else {
        println!("  INVALID: the traced or profiled run diverged from fleet_serve; per-layer numbers withheld");
    }
    let n = ledgers.len() as u64;
    Report {
        correct: matches && f.unexpected == 0,
        attempted: f.sessions * n,
        failed: f.unexpected * n,
        values,
    }
}

// ---------------------------------------------------------------------------
// Every workload, one child process each
// ---------------------------------------------------------------------------

/// Runs one workload in a child process; returns its result line.
fn child(args: &Args, name: &str, trace: bool) -> Result<json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    match args.runs {
        Some(n) => cmd.args(["--runs", &n.to_string()]),
        None => cmd.args(["--seconds", &args.seconds.to_string()]),
    };
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines.iter().skip(1) {
        println!("{l}");
    }
    if !out.status.success() {
        return Err(format!("{name}: child exited with {}", out.status));
    }
    json::parse(last).map_err(|e| format!("{name}: bad result line: {e}"))
}

fn expected_path() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json").to_string()
}

fn suite(args: &Args) -> ExitCode {
    let mut results: BTreeMap<&str, [json::Value; 2]> = BTreeMap::new();
    let mut ok = true;
    for trace in [false, true] {
        println!(
            "\n== {} metrics ==",
            if trace { "per-layer" } else { "end-to-end" }
        );
        for name in workload::NAMES {
            println!("-- {name}");
            match child(args, name, trace) {
                Ok(v) => {
                    if v.get("correct") != Some(&json::Value::Bool(true)) {
                        println!("  NOT CORRECT: {name} failed a correctness check");
                        ok = false;
                    }
                    results
                        .entry(name)
                        .or_insert([json::Value::Null, json::Value::Null])[usize::from(trace)] = v;
                }
                Err(e) => {
                    println!("  ERROR: {e}");
                    ok = false;
                }
            }
        }
    }
    let exact_values = |name: &str| -> Vec<(&'static str, f64)> {
        let Some([e2e, layer]) = results.get(name) else {
            return Vec::new();
        };
        let pick = |table: &'static [Metric], v: &json::Value| {
            table
                .iter()
                .filter(|m| m.exact)
                .filter_map(|m| {
                    let x = v.get("metrics")?.get(m.name)?.get("value")?.num()?;
                    Some((m.name, x))
                })
                .collect::<Vec<_>>()
        };
        let mut out = pick(&END_TO_END, e2e);
        out.extend(pick(&PER_LAYER, layer));
        out
    };

    if args.bless {
        let body: Vec<String> = workload::NAMES
            .iter()
            .map(|name| {
                let rows: Vec<String> = exact_values(name)
                    .iter()
                    .map(|(m, v)| format!("      {}: {v}", json::quote(m)))
                    .collect();
                format!(
                    "    {}: {{\n{}\n    }}",
                    json::quote(name),
                    rows.join(",\n")
                )
            })
            .collect();
        let doc = format!(
            "{{\n  \"seed\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            args.seed,
            body.join(",\n")
        );
        if !ok {
            println!("\nnot blessing: a workload failed");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(expected_path(), doc) {
            println!("\ncannot write {}: {e}", expected_path());
            return ExitCode::FAILURE;
        }
        println!("\nwrote {}", expected_path());
    } else if args.check {
        let expected = std::fs::read_to_string(expected_path())
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t));
        let expected = match expected {
            Ok(v) => v,
            Err(e) => {
                println!("\ncannot read {}: {e}", expected_path());
                return ExitCode::FAILURE;
            }
        };
        if expected.get("seed").and_then(json::Value::num) != Some(args.seed as f64) {
            println!("\nexpected.json holds another seed; check at its seed");
            return ExitCode::FAILURE;
        }
        let mut diffs = 0;
        for name in workload::NAMES {
            let want = expected.get("workloads").and_then(|w| w.get(name));
            let got = exact_values(name);
            let names: BTreeSet<&str> = got.iter().map(|(m, _)| *m).collect();
            for m in END_TO_END.iter().chain(&PER_LAYER).filter(|m| m.exact) {
                let g = got.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
                let e = want.and_then(|w| w.get(m.name)).and_then(json::Value::num);
                if g != e || !names.contains(m.name) {
                    println!("  DIFF {name} {}: expected {e:?}, got {g:?}", m.name);
                    diffs += 1;
                }
            }
        }
        println!("\ncheck: {diffs} exact metric(s) differ from expected.json");
        ok &= diffs == 0;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(json::Value::Arr(v)) => v
                    .iter()
                    .map(|m| {
                        let s = |k| {
                            m.get(k)
                                .and_then(json::Value::str)
                                .unwrap_or("")
                                .to_string()
                        };
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks {key}"),
            }
        };
        let ours = |t: &[Metric]| -> Vec<(String, String)> {
            t.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = match doc.get("workloads") {
            Some(json::Value::Arr(v)) => v
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(json::Value::str)
                        .unwrap_or("")
                        .to_string()
                })
                .collect(),
            _ => panic!("BENCHMARK.json lacks workloads"),
        };
        assert_eq!(workloads, workload::NAMES);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let mut v: Vec<u64> = (1..=24).collect();
        assert_eq!(latency_tail(&mut v), (12, 12, 50.0));
        let mut v: Vec<u64> = (1..=240).collect();
        assert_eq!(latency_tail(&mut v), (120, 228, 95.0));
    }

    #[test]
    fn board_sums_skip_other_names() {
        let snap = "board0.board.idle_cycles 5\nboard12.board.idle_cycles 7\n\
                    board1.net.board.irqs 3\nboard.idle_cycles 100\n";
        assert_eq!(board_sum(snap, "board.idle_cycles"), 12);
        assert_eq!(board_sum(snap, "net.board.irqs"), 3);
        assert_eq!(counter(snap, "board.idle_cycles"), 100);
    }
}
