//! The paper's host-side service (§2): a secure **redirector** — an
//! SSL/TLS front that terminates issl sessions and forwards plaintext to
//! a backend server, "such a service" as the commercial SSL accelerator
//! cards it stands in for.
//!
//! Topology:  client ──issl──> redirector ──plaintext──> backend echo
//!
//! ```text
//! cargo run -p bench --example secure_redirector
//! ```

use std::sync::atomic::Ordering;

use dynamicc::Scheduler;
use issl::host::{
    spawn_driver, spawn_plain_echo, spawn_redirector, spawn_secure_client, standard_rig,
    ComputeCost, RedirectorConfig,
};
use issl::{CipherSuite, ClientConfig, ClientKx, FileLog, Filesystem, Log, ServerConfig, ServerKx};
use netsim::{Endpoint, Ipv4, LinkParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsa::KeyPair;

fn main() {
    let (net, front, client) = standard_rig(10);
    let backend = net.add_host(Ipv4::new(10, 0, 0, 3));
    net.link(front, backend, LinkParams::lan_100m());

    let fs = Filesystem::new();
    let log = FileLog::new(fs, "/var/log/issl-redirector.log");
    let mut rng = StdRng::seed_from_u64(11);

    let mut sched = Scheduler::new();
    let backend_stats = spawn_plain_echo(&mut sched, &net, backend, 8080, 2);
    let front_stats = spawn_redirector(
        &mut sched,
        &net,
        front,
        &RedirectorConfig {
            port: 443,
            backend: Some(Endpoint::new(Ipv4::new(10, 0, 0, 3), 8080)),
            tls: ServerConfig {
                suites: vec![CipherSuite::AES128],
                kx: ServerKx::Rsa(KeyPair::generate(512, &mut rng)),
            },
            workers: 3,
            seed: 12,
            compute: ComputeCost::era_2002(),
        },
        log.clone(),
    );
    spawn_driver(&mut sched, &net, 500);

    // Three clients, each pushing a few KB through the secure front.
    let mut results = Vec::new();
    for i in 0..3u64 {
        results.push(spawn_secure_client(
            &mut sched,
            &net,
            client,
            Endpoint::new(net.with(|w| w.host_ip(front)), 443),
            ClientConfig {
                suite: CipherSuite::AES128,
                kx: ClientKx::Rsa,
            },
            vec![i as u8; 3000],
            750,
            20 + i,
        ));
    }

    while !results
        .iter()
        .all(|r| r.done.load(Ordering::SeqCst) || r.failed.load(Ordering::SeqCst))
    {
        sched.tick();
    }
    for (i, r) in results.iter().enumerate() {
        println!(
            "client {i}: {} bytes redirected and verified (failed: {})",
            r.bytes_verified.load(Ordering::SeqCst),
            r.failed.load(Ordering::SeqCst)
        );
    }
    // Let workers notice closes and log.
    for _ in 0..20_000 {
        sched.tick();
        if front_stats.served.load(Ordering::SeqCst) >= 3 {
            break;
        }
    }
    println!(
        "redirector: served {} connections, {} bytes forwarded; backend echoed {} bytes",
        front_stats.served.load(Ordering::SeqCst),
        front_stats.bytes_forward.load(Ordering::SeqCst),
        backend_stats.bytes_forward.load(Ordering::SeqCst),
    );
    println!("virtual time elapsed: {} µs", net.now());
    for line in log.lines() {
        println!("log: {line}");
    }
}
