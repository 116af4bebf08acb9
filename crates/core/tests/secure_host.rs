//! End-to-end tests of the Unix host profile: RSA-keyed issl sessions
//! over simulated BSD sockets, served by the fork-style redirector.

use std::sync::atomic::Ordering;

use crypto::Size;
use dynamicc::Scheduler;
use issl::host::{
    publish_key_hash, spawn_driver, spawn_plain_echo, spawn_redirector, spawn_secure_client,
    standard_rig, RedirectorConfig,
};
use issl::{CipherSuite, ClientConfig, ClientKx, FileLog, Filesystem, Log, ServerConfig, ServerKx};
use netsim::Endpoint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsa::KeyPair;

fn rsa_server_config() -> ServerConfig {
    let mut rng = StdRng::seed_from_u64(77);
    ServerConfig {
        suites: vec![
            CipherSuite::AES128,
            CipherSuite {
                key: Size::Bits192,
                block: Size::Bits128,
            },
            CipherSuite {
                key: Size::Bits256,
                block: Size::Bits256,
            },
        ],
        kx: ServerKx::Rsa(KeyPair::generate(512, &mut rng)),
    }
}

fn run_exchange(suite: CipherSuite, payload_len: usize) -> u64 {
    let (net, server, client) = standard_rig(42);
    let fs = Filesystem::new();
    let log = FileLog::new(fs.clone(), "/var/log/issl.log");
    let tls = rsa_server_config();
    publish_key_hash(&fs, &tls.kx);

    let mut sched = Scheduler::new();
    let _stats = spawn_redirector(
        &mut sched,
        &net,
        server,
        &RedirectorConfig {
            port: 4433,
            backend: None,
            tls,
            workers: 2,
            seed: 1,
            compute: issl::host::ComputeCost::free(),
        },
        log.clone(),
    );
    let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
    let result = spawn_secure_client(
        &mut sched,
        &net,
        client,
        Endpoint::new(net.with(|w| w.host_ip(server)), 4433),
        ClientConfig {
            suite,
            kx: ClientKx::Rsa,
        },
        payload,
        700,
        99,
    );
    spawn_driver(&mut sched, &net, 2_000);

    let mut rounds = 0;
    while !result.done.load(Ordering::SeqCst) && !result.failed.load(Ordering::SeqCst) {
        sched.tick();
        rounds += 1;
        assert!(rounds < 200_000, "exchange stalled");
    }
    assert!(!result.failed.load(Ordering::SeqCst), "client failed");
    result.bytes_verified.load(Ordering::SeqCst)
}

#[test]
fn rsa_handshake_and_echo_aes128() {
    assert_eq!(run_exchange(CipherSuite::AES128, 3000), 3000);
}

#[test]
fn host_profile_supports_large_suites() {
    // The host keeps the full Rijndael matrix issl advertised.
    let suite = CipherSuite {
        key: Size::Bits256,
        block: Size::Bits256,
    };
    assert_eq!(run_exchange(suite, 2000), 2000);
}

#[test]
fn redirector_forwards_to_backend() {
    let (net, server, client) = standard_rig(43);
    // Backend echo lives on a third host behind the server.
    let backend_host = net.add_host(netsim::Ipv4::new(10, 0, 0, 3));
    net.link(server, backend_host, netsim::LinkParams::lan_100m());

    let fs = Filesystem::new();
    let log = FileLog::new(fs.clone(), "/var/log/issl.log");
    let mut sched = Scheduler::new();
    spawn_plain_echo(&mut sched, &net, backend_host, 8080, 2);
    let stats = spawn_redirector(
        &mut sched,
        &net,
        server,
        &RedirectorConfig {
            port: 4433,
            backend: Some(Endpoint::new(netsim::Ipv4::new(10, 0, 0, 3), 8080)),
            tls: rsa_server_config(),
            workers: 2,
            seed: 5,
            compute: issl::host::ComputeCost::free(),
        },
        log.clone(),
    );
    let payload = vec![0xA5u8; 1500];
    let result = spawn_secure_client(
        &mut sched,
        &net,
        client,
        Endpoint::new(net.with(|w| w.host_ip(server)), 4433),
        ClientConfig {
            suite: CipherSuite::AES128,
            kx: ClientKx::Rsa,
        },
        payload,
        500,
        7,
    );
    spawn_driver(&mut sched, &net, 2_000);

    let mut rounds = 0;
    while !result.done.load(Ordering::SeqCst) && !result.failed.load(Ordering::SeqCst) {
        sched.tick();
        rounds += 1;
        assert!(rounds < 200_000, "redirection stalled");
    }
    assert!(!result.failed.load(Ordering::SeqCst));
    assert_eq!(result.bytes_verified.load(Ordering::SeqCst), 1500);
    assert_eq!(stats.bytes_forward.load(Ordering::SeqCst), 1500);
}

#[test]
fn key_hash_lives_in_a_file_on_the_host() {
    let fs = Filesystem::new();
    let tls = rsa_server_config();
    let hex = publish_key_hash(&fs, &tls.kx);
    assert_eq!(hex.len(), 40);
    assert_eq!(fs.read("/etc/issl/key.hash").unwrap(), hex.as_bytes());
}

#[test]
fn host_log_grows_per_connection() {
    let (net, server, client) = standard_rig(44);
    let fs = Filesystem::new();
    let log = FileLog::new(fs.clone(), "/var/log/issl.log");
    let mut sched = Scheduler::new();
    spawn_redirector(
        &mut sched,
        &net,
        server,
        &RedirectorConfig {
            port: 4433,
            backend: None,
            tls: rsa_server_config(),
            workers: 1,
            seed: 6,
            compute: issl::host::ComputeCost::free(),
        },
        log.clone(),
    );
    let result = spawn_secure_client(
        &mut sched,
        &net,
        client,
        Endpoint::new(net.with(|w| w.host_ip(server)), 4433),
        ClientConfig {
            suite: CipherSuite::AES128,
            kx: ClientKx::Rsa,
        },
        b"log me".to_vec(),
        64,
        8,
    );
    spawn_driver(&mut sched, &net, 2_000);
    let mut rounds = 0;
    while !result.done.load(Ordering::SeqCst) && !result.failed.load(Ordering::SeqCst) {
        sched.tick();
        rounds += 1;
        assert!(rounds < 200_000);
    }
    // Give the worker a few rounds to notice the close and log.
    for _ in 0..2000 {
        sched.tick();
        if !log.lines().is_empty() {
            break;
        }
    }
    let lines = log.lines();
    assert!(
        lines.iter().any(|l| l.contains("served connection")),
        "log: {lines:?}"
    );
}
