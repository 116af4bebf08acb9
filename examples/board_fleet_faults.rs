//! E16: fault injection against the serving fleet — four RMC2000
//! boards behind the balancer take a scripted wedge (with
//! resurrection), a link flap, and a MAC-targeting corruption storm
//! while three waves of clients dial in. Survivor sessions complete;
//! the balancer's 5 ms connect timeout absorbs the wedge; the storm
//! draws the guest's deterministic close alert.
//!
//! Runs the scenario under both execution engines, prints the
//! EXPERIMENTS.md §E16 tables (sessions vs faults, failover latency),
//! asserts engine byte-identity, and writes the machine-readable
//! results to `BENCH_e16.json` in the current directory.
//!
//! Run: `cargo run --release --example board_fleet_faults`

use std::time::Instant;

use bench::Json;
use issl::recmap;
use netsim::Corruption;
use rabbit::Engine;
use rmc2000::nic::CYCLES_PER_US;
use rmc2000::{fleet_serve, FaultPlan, FleetRun, FleetSpec, GuestClient, Tamper};

const PSK: &[u8] = b"rmc2000 shared secret";
const BOARDS: usize = 4;

// The scripted timeline, in virtual µs (see tests/e16_fleet_faults.rs
// for the reasoning): the wedge lands after wave 1 drains, wave 2
// dials into the degraded fleet, wave 3 dials after the resurrection.
const WEDGE_AT: u64 = 560_000;
const WAVE2_AT: u64 = 600_000;
const FLAP_END: u64 = 750_000;
const STORM_END: u64 = 1_500_000;
const RESURRECT_AT: u64 = 1_600_000;
const WAVE3_AT: u64 = 1_900_000;

fn secure(tag: u8) -> GuestClient {
    GuestClient::Secure {
        messages: vec![vec![0x60 + tag; 22], vec![0x10 + tag; 31]],
        psk: PSK.to_vec(),
        tamper: Tamper::None,
    }
}

fn plain(tag: u8) -> GuestClient {
    GuestClient::Plain {
        messages: vec![format!("fault wave client {tag}").into_bytes()],
    }
}

fn workload() -> (Vec<GuestClient>, Vec<u64>) {
    let clients = vec![
        secure(0),
        secure(1),
        plain(2),
        plain(3),
        secure(4),
        secure(5),
        secure(6),
        secure(7),
        secure(8),
        secure(9),
        plain(10),
        plain(11),
    ];
    let mut dials = vec![0; 4];
    dials.extend([WAVE2_AT; 4]);
    dials.extend([WAVE3_AT; 4]);
    (clients, dials)
}

fn spec(engine: Engine) -> FleetSpec {
    let (clients, dials) = workload();
    let mut spec = FleetSpec::new(engine, BOARDS, PSK, clients);
    spec.probe_gap_us = Some(900);
    spec.faults = FaultPlan::new()
        .wedge_resurrect(1, WEDGE_AT, RESURRECT_AT)
        .flap(2, WAVE2_AT, FLAP_END, 0.4)
        .storm(
            3,
            WAVE2_AT,
            STORM_END,
            Corruption::mac_storm(recmap::REC_DATA),
        );
    spec.dials = dials;
    spec.lb_retry_after_us = Some(200_000);
    spec.lb_stall_timeout_us = Some(2_000_000);
    spec
}

struct Measured {
    name: &'static str,
    run: FleetRun,
    wall_ms: f64,
}

fn main() {
    let (clients, _) = workload();
    let sessions = clients.len();

    let mut measured: Vec<Measured> = Vec::new();
    for (name, engine) in [
        ("interpreter", Engine::Interpreter),
        ("block_cache", Engine::BlockCache),
    ] {
        let t0 = Instant::now();
        let run = fleet_serve(&spec(engine));
        let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;
        for (i, out) in run.outcomes.iter().enumerate() {
            assert!(out.established, "client {i} establishes");
            assert_eq!(out.error, None, "client {i} has no transport error");
        }
        measured.push(Measured { name, run, wall_ms });
    }

    let a = &measured[0].run;
    let clean = a
        .outcomes
        .iter()
        .filter(|o| !(o.peer_closed && o.echoed.is_empty()))
        .count();
    let victims = sessions - clean;
    println!(
        "E16: {BOARDS} boards under fault injection — {} fault events, \
         {sessions} sessions dialed in 3 waves",
        a.faults.injected()
    );
    println!(
        "     wedge board1 @{WEDGE_AT}µs (resurrect @{RESURRECT_AT}µs), \
         flap board2, MAC storm board3\n"
    );
    println!(
        "{:<12} {:>14} {:>12} {:>10} {:>10} {:>10}",
        "engine", "fleet cycles", "virtual ms", "clean", "alerted", "wall ms"
    );
    for m in &measured {
        let r = &m.run;
        let cycles: u64 = r.boards.iter().map(|b| b.cycles).sum();
        println!(
            "{:<12} {:>14} {:>12.2} {:>10} {:>10} {:>10.1}",
            m.name,
            cycles,
            r.virtual_us as f64 / 1_000.0,
            clean,
            victims,
            m.wall_ms,
        );
    }

    let b = &measured[1].run;
    let identical = a.outcomes == b.outcomes
        && a.epochs == b.epochs
        && a.virtual_us == b.virtual_us
        && a.backends == b.backends
        && a.snapshot == b.snapshot
        && a.faults == b.faults
        && a.boards.iter().zip(&b.boards).all(|(x, y)| {
            x.cycles == y.cycles
                && x.instructions == y.instructions
                && x.conns == y.conns
                && x.alert_kinds == y.alert_kinds
                && x.serial_tx == y.serial_tx
        });
    assert!(identical, "engines disagree on an observable");
    println!("\nengines byte-identical: transcripts, cycles, books, fault report \u{2713}");

    println!("\nfault ledger:");
    for f in &a.faults.applied {
        println!("  @{:>9}µs  {}", f.applied_us, f.what);
    }
    println!(
        "\ncorrupted frames: {}   failover latencies: {:?} µs   revivals: {}",
        a.faults.corrupted_frames,
        a.faults.failover_latencies_us,
        a.backends.iter().map(|be| be.revivals).sum::<u64>(),
    );

    println!(
        "\n{:<12} {:>10} {:>10} {:>10} {:>12}",
        "board", "sessions", "failures", "revivals", "close alerts"
    );
    for (board, be) in a.boards.iter().zip(&a.backends) {
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>12}",
            board.label, be.served, be.failures, be.revivals, board.alert_kinds[0],
        );
    }

    let json = render_json(sessions, clean, identical, &measured);
    std::fs::write("BENCH_e16.json", &json).expect("write BENCH_e16.json");
    println!("\nwrote BENCH_e16.json");
}

/// The E16 document on the shared bench emitter: the scenario header,
/// one object per engine, the fault ledger, and the per-board books.
fn render_json(sessions: usize, clean: usize, identical: bool, measured: &[Measured]) -> String {
    let engines: Vec<Json> = measured
        .iter()
        .map(|m| {
            let r = &m.run;
            let cycles: u64 = r.boards.iter().map(|b| b.cycles).sum();
            Json::obj()
                .field("engine", m.name)
                .field("fleet_cycles", cycles)
                .field("epochs", r.epochs)
                .field("virtual_us", r.virtual_us)
                .field("wall_clock_ms", Json::f64(m.wall_ms, 1))
        })
        .collect();
    let a = &measured[0].run;
    let faults: Vec<Json> = a
        .faults
        .applied
        .iter()
        .map(|f| {
            Json::obj()
                .field("at_us", f.at_us)
                .field("applied_us", f.applied_us)
                .field("what", f.what.as_str())
        })
        .collect();
    let latencies: Vec<Json> = a
        .faults
        .failover_latencies_us
        .iter()
        .map(|&l| Json::from(l))
        .collect();
    let boards: Vec<Json> = a
        .boards
        .iter()
        .zip(&a.backends)
        .map(|(board, be)| {
            Json::obj()
                .field("board", board.label.as_str())
                .field("sessions_served", be.served)
                .field("failures", be.failures)
                .field("revivals", be.revivals)
                .field("close_alerts", board.alert_kinds[0])
        })
        .collect();
    Json::obj()
        .field("experiment", "E16")
        .field("clock_mhz", CYCLES_PER_US)
        .field("boards", a.boards.len())
        .field("sessions", sessions)
        .field("sessions_clean", clean)
        .field("sessions_alerted", sessions - clean)
        .field("faults_injected", a.faults.injected())
        .field("corrupted_frames", a.faults.corrupted_frames)
        .field("failover_latencies_us", latencies)
        .field("engines_identical", identical)
        .field("engines", engines)
        .field("fault_ledger", faults)
        .field("boards_detail", boards)
        .render()
}
