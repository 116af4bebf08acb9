//! The secure channel over an unreliable wire: TCP repairs the loss
//! underneath, the record MACs stay valid, and the application bytes
//! survive intact — the full stack exercising every recovery path at
//! once.

use std::sync::atomic::Ordering;

use dynamicc::Scheduler;
use issl::host::{
    spawn_driver, spawn_redirector, spawn_secure_client, ComputeCost, RedirectorConfig,
};
use issl::{CipherSuite, ClientConfig, ClientKx, FileLog, Filesystem, ServerConfig, ServerKx};
use netsim::{Endpoint, Ipv4, LinkParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsa::KeyPair;
use sockets::Net;

#[test]
fn secure_exchange_survives_a_lossy_link() {
    let net = Net::new(0x105);
    let server = net.add_host(Ipv4::new(10, 0, 0, 1));
    let client = net.add_host(Ipv4::new(10, 0, 0, 2));
    net.link(server, client, LinkParams::lan_100m().with_drop_rate(0.08));

    let mut rng = StdRng::seed_from_u64(3);
    let mut sched = Scheduler::new();
    spawn_redirector(
        &mut sched,
        &net,
        server,
        &RedirectorConfig {
            port: 4433,
            backend: None,
            tls: ServerConfig {
                suites: vec![CipherSuite::AES128],
                kx: ServerKx::Rsa(KeyPair::generate(512, &mut rng)),
            },
            workers: 1,
            seed: 4,
            compute: ComputeCost::free(),
        },
        FileLog::new(Filesystem::new(), "/var/log/issl.log"),
    );
    let payload: Vec<u8> = (0..8000u32).map(|i| (i % 249) as u8).collect();
    let result = spawn_secure_client(
        &mut sched,
        &net,
        client,
        Endpoint::new(Ipv4::new(10, 0, 0, 1), 4433),
        ClientConfig {
            suite: CipherSuite::AES128,
            kx: ClientKx::Rsa,
        },
        payload,
        800,
        5,
    );
    spawn_driver(&mut sched, &net, 2_000);

    let mut rounds = 0u64;
    while !result.done.load(Ordering::SeqCst) && !result.failed.load(Ordering::SeqCst) {
        sched.tick();
        rounds += 1;
        assert!(rounds < 3_000_000, "lossy exchange stalled");
    }
    assert!(
        !result.failed.load(Ordering::SeqCst),
        "loss below the channel must be invisible to issl"
    );
    assert_eq!(result.bytes_verified.load(Ordering::SeqCst), 8000);
    net.with(|w| {
        assert!(w.stats.dropped > 0, "the link really dropped packets");
        assert!(w.stats.retransmits > 0, "TCP really retransmitted");
    });
}
