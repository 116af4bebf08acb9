//! E16: fault injection against the serving fleet. Four boards behind
//! the balancer take a scripted beating — one board wedges mid-run and
//! is later resurrected, one link flaps, one link suffers a
//! MAC-targeting corruption storm — while three waves of clients dial
//! in. Sessions routed to survivors complete; the balancer's 5 ms
//! connect timeout absorbs the wedge; the corruption storm draws the
//! guest's deterministic close alert; and the whole ordeal is
//! byte-identical across CPU engines and across repeated runs.

use std::sync::OnceLock;

use issl::recmap;
use netsim::Corruption;
use rabbit::Engine;
use rmc2000::{fleet_serve, FaultPlan, FleetRun, FleetSpec, GuestClient, Tamper};

const PSK: &[u8] = b"rmc2000 shared secret";
const BOARDS: usize = 4;

// The scripted timeline, in virtual µs. Wave 1 needs ~540 ms (the
// secure handshake is the long pole at 30 MHz), so the wedge lands on
// an idle board; wave 2 dials into the degraded fleet; wave 3 dials
// after the resurrection, past the balancer's retry window, to prove
// the revived board carries load again.
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

/// Three waves of four: a clean warm-up, a wave into the degraded
/// fleet (all secure, so the storm always has a MAC to chew on), and a
/// post-resurrection wave.
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

fn plan() -> FaultPlan {
    FaultPlan::new()
        .wedge_resurrect(1, WEDGE_AT, RESURRECT_AT)
        .flap(2, WAVE2_AT, FLAP_END, 0.4)
        .storm(
            3,
            WAVE2_AT,
            STORM_END,
            Corruption::mac_storm(recmap::REC_DATA),
        )
}

fn spec(engine: Engine) -> FleetSpec {
    let (clients, dials) = workload();
    let mut spec = FleetSpec::new(engine, BOARDS, PSK, clients);
    spec.probe_gap_us = Some(900);
    spec.faults = plan();
    spec.dials = dials;
    spec.lb_retry_after_us = Some(200_000);
    spec.lb_stall_timeout_us = Some(2_000_000);
    spec
}

fn observables(r: &FleetRun) -> impl std::fmt::Debug + PartialEq {
    (
        r.outcomes.clone(),
        r.snapshot.clone(),
        r.virtual_us,
        r.epochs,
        r.echoed_bytes,
        r.boards
            .iter()
            .map(|b| {
                (
                    b.cycles,
                    b.instructions,
                    b.accepts,
                    b.alert_kinds,
                    b.serial_tx.clone(),
                )
            })
            .collect::<Vec<_>>(),
        r.backends.clone(),
        r.faults.clone(),
    )
}

fn run(engine: Engine) -> &'static FleetRun {
    static INTERP: OnceLock<FleetRun> = OnceLock::new();
    static BC: OnceLock<FleetRun> = OnceLock::new();
    match engine {
        Engine::Interpreter => INTERP.get_or_init(|| fleet_serve(&spec(Engine::Interpreter))),
        Engine::BlockCache => BC.get_or_init(|| fleet_serve(&spec(Engine::BlockCache))),
    }
}

/// The wire form of a guest alert record carrying `body`.
fn alert_rec(body: &[u8]) -> Vec<u8> {
    let mut rec = vec![recmap::REC_ALERT];
    rec.extend_from_slice(&(body.len() as u16).to_be_bytes());
    rec.extend_from_slice(body);
    rec
}

/// The headline E16 claim: with a wedge, a flap and a storm in play,
/// every session still terminates deterministically — survivors'
/// sessions complete cleanly, storm victims draw the guest's close
/// alert, and the balancer's books account for exactly one failover.
#[test]
fn degraded_fleet_still_serves_every_survivor_session() {
    let (clients, _) = workload();
    let run = run(Engine::BlockCache);

    assert_eq!(run.outcomes.len(), 12);
    assert_eq!(run.faults.injected(), 6, "all six plan events applied");

    // Waves 1 and 3 never see a fault: clean echoes all round.
    for i in (0..4).chain(8..12) {
        let out = &run.outcomes[i];
        assert!(out.established, "client {i} establishes");
        assert_eq!(out.error, None, "client {i} clean");
        let expected: Vec<u8> = match &clients[i] {
            GuestClient::Secure { messages, .. } | GuestClient::Plain { messages } => {
                messages.concat()
            }
            _ => unreachable!(),
        };
        assert_eq!(out.echoed, expected, "client {i} echo");
    }

    // Wave 2 dialed into the degraded fleet: everyone establishes
    // (the balancer failed over around the black link), and each
    // session either completes or is cut by the corruption storm with
    // the guest's deterministic close alert — no third outcome.
    let mut victims = 0;
    for (i, out) in run.outcomes.iter().enumerate().take(8).skip(4) {
        assert!(out.established, "client {i} establishes despite faults");
        assert_eq!(out.error, None, "client {i} has no transport error");
        if out.peer_closed && out.echoed.is_empty() {
            assert!(
                out.raw_rx.ends_with(&alert_rec(recmap::ALERT_CLOSE)),
                "storm victim {i} drew the close alert"
            );
            victims += 1;
        } else {
            let expected: Vec<u8> = match &clients[i] {
                GuestClient::Secure { messages, .. } => messages.concat(),
                _ => unreachable!(),
            };
            assert_eq!(out.echoed, expected, "client {i} rode out the faults");
        }
    }
    assert!(
        (1..=2).contains(&victims),
        "the storm caught wave 2's board-3 traffic: {victims}"
    );

    // The storm's damage is visible end to end: corrupted frames on
    // the link, close alerts in the guest's per-kind books.
    assert!(run.faults.corrupted_frames >= 1, "storm corrupted frames");
    let close_alerts: u16 = run.boards.iter().map(|b| b.alert_kinds[0]).sum();
    assert!(
        close_alerts >= u16::try_from(victims).unwrap(),
        "guest counted a close alert per victim"
    );

    // Two failovers, both at the 5 ms connect timeout: wave 2's
    // connect into the wedged board, and wave 2's connect into the
    // flapping link (a dropped SYN cannot be retried inside the
    // connect window — TCP's initial RTO is 200 ms). Each cost one
    // dead-mark and, once wave 3 probed, one revival.
    assert_eq!(run.faults.failover_latencies_us.len(), 2);
    for &lat in &run.faults.failover_latencies_us {
        assert!(
            (5_000..=5_200).contains(&lat),
            "failover took the connect timeout: {lat} µs"
        );
    }
    for i in [1, 2] {
        assert_eq!(run.backends[i].failures, 1, "board{i} charged one failure");
        assert_eq!(run.backends[i].revivals, 1, "board{i} revived once");
        assert!(!run.backends[i].dead, "board{i} alive again at the end");
    }

    // The resurrected board carries wave-3 load: it served sessions
    // after coming back, and every board freed all its handles.
    assert!(run.backends[1].served >= 1, "board1 served after revival");
    for b in &run.boards {
        assert_eq!(b.open, 0, "{} freed all handles", b.label);
    }
}

/// Engine differential: the interpreter and the block-cache engine
/// agree on every observable of the faulted run.
#[test]
fn faulted_run_is_engine_identical() {
    assert_eq!(
        observables(run(Engine::Interpreter)),
        observables(run(Engine::BlockCache))
    );
}

/// Determinism: the same spec (same fault plan, same per-link fault
/// RNG seeds) replayed from scratch produces the identical run.
#[test]
fn same_fault_plan_twice_is_byte_identical() {
    let again = fleet_serve(&spec(Engine::BlockCache));
    assert_eq!(observables(run(Engine::BlockCache)), observables(&again));
}

/// A wedge freezes the victim's telemetry: the `board<i>.net.board.*`
/// lines captured at wedge time reappear verbatim in the final
/// snapshot when the board is never resurrected, the balancer charges
/// exactly one failure per failed connect, and every board counter
/// stays under its `board<i>.` namespace.
#[test]
fn wedged_board_telemetry_freezes_and_books_balance() {
    // Plain clients on the secure firmware: sessions are quick (~2 ms),
    // so the timeline is tight. Wave 1 exercises both boards; board 1
    // wedges while idle; wave 2 must fail over.
    let clients: Vec<GuestClient> = (0..4).map(plain).collect();
    let mut spec = FleetSpec::new(Engine::BlockCache, 2, PSK, clients);
    spec.probe_gap_us = Some(900);
    spec.dials = vec![0, 0, 40_000, 40_000];
    spec.faults = FaultPlan::new().wedge(1, 20_000);
    spec.lb_retry_after_us = Some(200_000);
    let run = fleet_serve(&spec);

    // All four clients completed, the wave-2 pair on board 0 alone.
    for (i, out) in run.outcomes.iter().enumerate() {
        assert!(out.established && out.error.is_none(), "client {i} clean");
    }
    assert_eq!(run.boards[0].accepts, 3);
    assert_eq!(run.boards[1].accepts, 1);

    // The frozen counters reappear verbatim in the final snapshot.
    assert_eq!(run.faults.wedge_snapshots.len(), 1);
    let (board, frozen) = &run.faults.wedge_snapshots[0];
    assert_eq!(*board, 1);
    assert!(!frozen.is_empty(), "wedge captured board1 counters");
    for line in frozen.lines() {
        assert!(
            run.snapshot.contains(line),
            "board1 counter moved after wedge: {line}"
        );
    }

    // One failed connect, one failure charged, one dead-mark.
    assert_eq!(run.backends[1].failures, 1);
    assert_eq!(run.faults.failover_latencies_us.len(), 1);
    assert!(run.snapshot.contains("lb.dead_marks 1"));

    // One naming scheme: board counters exist only under their
    // `board<i>.` namespace, never as unprefixed keys.
    assert!(run.snapshot.contains("board0.net.board.rx_frames"));
    for line in run.snapshot.lines() {
        let unprefixed = ["net.board.", "board.", "issl.guest."]
            .iter()
            .any(|p| line.starts_with(p));
        assert!(!unprefixed, "unprefixed board key: {line}");
    }
}
