//! Every client terminates: a tampering secure client whose connection
//! is closed or reset before its tamper fires ends like any other client
//! whose connection is gone, with the cause recorded, instead of leaving
//! `fleet_serve` waiting for it until the run gives up.

use rabbit::Engine;
use rmc2000::{fleet_serve, FleetSpec, GuestClient, Tamper};

const PSK: &[u8] = b"rmc2000 shared secret";

/// Eight tampering clients dialing 7 ms apart at two boards, board 1's
/// link dead, with a 60 ms stall timeout: the balancer aborts sessions
/// (or routes them at the dead board) before their first data record.
fn spec(tamper: Tamper) -> FleetSpec {
    let clients = (0..8)
        .map(|i| GuestClient::Secure {
            messages: vec![format!("tampered {i}").into_bytes()],
            psk: PSK.to_vec(),
            tamper,
        })
        .collect();
    let mut spec = FleetSpec::new(Engine::BlockCache, 2, PSK, clients);
    spec.dead_links = vec![1];
    spec.lb_stall_timeout_us = Some(60_000);
    spec.dials = (0..8).map(|i| i * 7_000).collect();
    spec
}

#[test]
fn a_tampering_client_whose_connection_is_gone_terminates() {
    for tamper in [Tamper::FlipDataMac, Tamper::TruncateAfterHeader] {
        let run = fleet_serve(&spec(tamper));
        assert_eq!(run.outcomes.len(), 8);
        for (i, o) in run.outcomes.iter().enumerate() {
            assert!(
                o.error.is_some() || o.peer_closed,
                "{tamper:?} client {i} ended without a cause: {o:?}"
            );
        }
        assert!(
            run.outcomes
                .iter()
                .any(|o| matches!(o.error.as_deref(), Some("Reset" | "EarlyClose"))),
            "{tamper:?}: no connection was cut before its tamper fired"
        );
    }
}
