//! Event-driven mass-concurrency serving: one loop multiplexing many
//! sans-I/O [`SessionMachine`]s over one simulated world.
//!
//! This is the architecture the blocking profiles cannot reach. The host
//! profile forks a `UnixProcess` per connection and pseudo-blocks inside
//! every read; the RMC profile is authentically capped at three handler
//! costatements. The [`EventLoop`] instead reacts to netsim's per-socket
//! events ([`netsim::SocketEvent`]) — accept-ready, bytes-ready,
//! window-open, peer-closed — so each iteration touches only the sockets
//! that changed, O(ready) rather than O(connections).
//!
//! [`run_load`] is the deterministic load generator: N concurrent echo
//! clients against one in-loop echo server, reporting sessions/sec and
//! handshake-latency percentiles in virtual time.

use std::collections::HashMap;

use crypto::Prng;
use netsim::{Endpoint, HostId, Ipv4, LinkParams, Recv, SocketEvent, SocketId};
use sockets::Net;

use crate::echo::EchoClient;
use crate::machine::SessionMachine;
use crate::session::{CipherSuite, ClientConfig, ClientKx, IsslError, ServerConfig, ServerKx};

/// Folds an [`IsslError`] into the label value of the
/// `serve.errors{kind=...}` counter family.
fn error_kind(e: &IsslError) -> &'static str {
    match e {
        IsslError::Record(_) => "record",
        IsslError::BadMac => "bad_mac",
        IsslError::Handshake(_) => "handshake",
        IsslError::UnsupportedSuite => "unsupported_suite",
        IsslError::Rsa => "rsa",
        IsslError::Corrupt => "corrupt",
        IsslError::PeerAlert => "peer_alert",
    }
}

/// Label value for the per-suite handshake counter, e.g. `aes128-128`.
fn suite_label(s: &CipherSuite) -> String {
    format!("aes{}-{}", s.key.words() * 32, s.block.words() * 32)
}

/// What a multiplexed connection is doing.
enum ConnKind {
    /// Server side: echo every decrypted byte back, encrypted.
    Echo(SessionMachine),
    /// Load-generator client: handshake, send one payload, expect it
    /// back.
    Client(LoadClient),
}

/// A load-generator client: the echo schedule plus its measurements.
struct LoadClient {
    echo: EchoClient,
    hs_start_us: u64,
    /// Virtual time the handshake finished and the schedule wrote the
    /// payload: the `serve.echo_us` round trip starts here.
    established_us: Option<u64>,
    /// Pre-rendered label for `serve.handshakes{suite=...}`.
    suite_label: String,
}

/// One multiplexed connection: a sans-I/O machine plus transmit state.
struct Conn {
    kind: ConnKind,
    /// Machine output the TCP send buffer has not yet accepted.
    out_pending: Vec<u8>,
    /// Close once `out_pending` drains.
    want_close: bool,
}

impl ConnKind {
    fn feed(&mut self, bytes: &[u8]) -> Result<(), IsslError> {
        match self {
            ConnKind::Echo(m) => m.feed(bytes),
            ConnKind::Client(c) => c.echo.feed(bytes),
        }
    }

    fn feed_eof(&mut self) {
        match self {
            ConnKind::Echo(m) => m.feed_eof(),
            ConnKind::Client(c) => c.echo.feed_eof(),
        }
    }

    fn error(&self) -> Option<&IsslError> {
        match self {
            ConnKind::Echo(m) => m.error(),
            ConnKind::Client(c) => c.echo.error(),
        }
    }

    fn take_output(&mut self) -> Vec<u8> {
        match self {
            ConnKind::Echo(m) => m.take_output(),
            ConnKind::Client(c) => c.echo.take_output(),
        }
    }
}

/// A listener: every accepted connection becomes an echo server session.
struct Listener {
    config: ServerConfig,
    seed: u64,
    accepted: u64,
}

/// Outcome counters and latency samples for completed client sessions,
/// with the telemetry snapshot taken when the report was made.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Client sessions that completed handshake + echo round-trip.
    pub completed: usize,
    /// Client sessions that failed (protocol error, reset, premature
    /// close).
    pub failed: usize,
    /// Virtual time the run consumed, in microseconds.
    pub elapsed_us: u64,
    /// Handshake latencies (connect → issl Finished verified) of
    /// completed sessions, in virtual microseconds, unsorted.
    pub handshake_us: Vec<u64>,
    /// Point-in-time copy of the world's registry: every `serve.*` and
    /// `net.*` metric the run produced. Identical load specs give
    /// byte-identical snapshots.
    pub snapshot: telemetry::Snapshot,
}

impl ServeReport {
    /// Completed sessions per virtual second.
    pub fn sessions_per_sec(&self) -> f64 {
        if self.elapsed_us == 0 {
            return 0.0;
        }
        self.completed as f64 / (self.elapsed_us as f64 / 1_000_000.0)
    }

    /// The `p`-th percentile handshake latency in virtual microseconds
    /// (nearest-rank; 0 when no session completed).
    pub fn handshake_percentile_us(&self, p: f64) -> u64 {
        if self.handshake_us.is_empty() {
            return 0;
        }
        let mut sorted = self.handshake_us.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }
}

/// An event-driven server/load loop over one [`Net`].
pub struct EventLoop {
    net: Net,
    listeners: HashMap<SocketId, Listener>,
    conns: HashMap<SocketId, Conn>,
    clients_spawned: usize,
    completed: usize,
    failed: usize,
    handshake_us: Vec<u64>,
    started_us: u64,
    /// The world's registry — serve metrics land next to the `net.*`
    /// counters so one snapshot covers the whole stack.
    registry: telemetry::Registry,
    hs_hist: telemetry::Histogram,
    echo_hist: telemetry::Histogram,
    completed_ctr: telemetry::Counter,
    failed_ctr: telemetry::Counter,
    accepted_ctr: telemetry::Counter,
    spans: telemetry::SpanRecorder,
}

impl EventLoop {
    /// Creates the loop and switches the world to event-driven
    /// notification. Metrics register in the world's own
    /// [`telemetry::Registry`], so a snapshot taken through
    /// [`EventLoop::telemetry`] shows the serving layer and the network
    /// underneath it together.
    pub fn new(net: &Net) -> EventLoop {
        net.with(|w| w.enable_socket_events());
        let started_us = net.now();
        let registry = net.telemetry();
        let hs_hist = registry.histogram("serve.handshake_us", &[]);
        let echo_hist = registry.histogram("serve.echo_us", &[]);
        let completed_ctr = registry.counter("serve.sessions.completed", &[]);
        let failed_ctr = registry.counter("serve.sessions.failed", &[]);
        let accepted_ctr = registry.counter("serve.accepted", &[]);
        EventLoop {
            net: net.clone(),
            listeners: HashMap::new(),
            conns: HashMap::new(),
            clients_spawned: 0,
            completed: 0,
            failed: 0,
            handshake_us: Vec::new(),
            started_us,
            registry,
            hs_hist,
            echo_hist,
            completed_ctr,
            failed_ctr,
            accepted_ctr,
            spans: telemetry::SpanRecorder::new(1024),
        }
    }

    /// The registry this loop records into (shared with the world).
    pub fn telemetry(&self) -> &telemetry::Registry {
        &self.registry
    }

    /// Completed handshake spans in virtual time, oldest first.
    pub fn spans(&self) -> &telemetry::SpanRecorder {
        &self.spans
    }

    /// Opens an issl echo listener: every accepted connection runs the
    /// server handshake (seeded deterministically per connection) and
    /// echoes decrypted data back encrypted.
    ///
    /// # Errors
    ///
    /// [`netsim::NetError`] if the port is taken.
    pub fn listen_echo(
        &mut self,
        host: HostId,
        port: u16,
        backlog: usize,
        config: ServerConfig,
        seed: u64,
    ) -> Result<SocketId, netsim::NetError> {
        let sid = self.net.with(|w| w.tcp_listen(host, port, backlog))?;
        self.listeners.insert(
            sid,
            Listener {
                config,
                seed,
                accepted: 0,
            },
        );
        Ok(sid)
    }

    /// Starts a load-generator client: connect, handshake, send
    /// `payload`, expect it echoed back, close.
    pub fn connect_echo_client(
        &mut self,
        host: HostId,
        server: Endpoint,
        config: ClientConfig,
        payload: Vec<u8>,
        seed: u64,
    ) -> SocketId {
        let sid = self.net.with(|w| w.tcp_connect(host, server));
        let client = LoadClient {
            suite_label: suite_label(&config.suite),
            hs_start_us: self.net.now(),
            established_us: None,
            echo: EchoClient::new(config, Prng::new(seed), vec![payload]),
        };
        self.conns.insert(
            sid,
            Conn {
                kind: ConnKind::Client(client),
                out_pending: Vec::new(),
                want_close: false,
            },
        );
        self.clients_spawned += 1;
        sid
    }

    /// Client sessions still in flight.
    pub fn clients_pending(&self) -> usize {
        self.clients_spawned - self.completed - self.failed
    }

    /// Drives the world until every spawned client finished, the event
    /// queue goes idle, or virtual time reaches `deadline_us`.
    pub fn run(&mut self, deadline_us: u64) {
        loop {
            self.dispatch();
            if self.clients_spawned > 0 && self.clients_pending() == 0 {
                break;
            }
            if self.net.now() >= deadline_us {
                break;
            }
            if !self.net.step() {
                self.dispatch();
                break;
            }
        }
    }

    /// The outcome so far.
    pub fn report(&self) -> ServeReport {
        ServeReport {
            completed: self.completed,
            failed: self.failed,
            elapsed_us: self.net.now() - self.started_us,
            handshake_us: self.handshake_us.clone(),
            snapshot: self.registry.snapshot(),
        }
    }

    /// Drains pending socket events and reacts to exactly those sockets.
    fn dispatch(&mut self) {
        loop {
            let events = self.net.with(|w| w.take_socket_events());
            if events.is_empty() {
                return;
            }
            for ev in events {
                match ev {
                    SocketEvent::AcceptReady(listener) => self.on_accept_ready(listener),
                    SocketEvent::Established(sid) => {
                        if self.conns.contains_key(&sid) {
                            self.flush(sid);
                        }
                    }
                    SocketEvent::BytesReady(sid) | SocketEvent::PeerClosed(sid) => {
                        if self.conns.contains_key(&sid) {
                            self.pump(sid);
                        }
                    }
                    SocketEvent::WindowOpen(sid) => {
                        if self.conns.contains_key(&sid) {
                            self.flush(sid);
                        }
                    }
                }
            }
        }
    }

    fn on_accept_ready(&mut self, listener_id: SocketId) {
        loop {
            let Some(listener) = self.listeners.get_mut(&listener_id) else {
                return;
            };
            let Some(conn) = self.net.with(|w| w.tcp_accept(listener_id)) else {
                return;
            };
            // Deterministic per-connection seed: listener seed mixed with
            // the accept ordinal (splitmix64 finalizer).
            let mut z = listener
                .seed
                .wrapping_add(listener.accepted.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            listener.accepted += 1;
            let machine = SessionMachine::server(listener.config.clone(), Prng::new(z));
            self.conns.insert(
                conn,
                Conn {
                    kind: ConnKind::Echo(machine),
                    out_pending: Vec::new(),
                    want_close: false,
                },
            );
            self.accepted_ctr.inc();
            self.pump(conn);
        }
    }

    /// Feeds everything the socket has buffered into the machine, reacts
    /// to new plaintext / handshake completion, then flushes output.
    fn pump(&mut self, sid: SocketId) {
        let mut reset = false;
        let mut eof = false;
        loop {
            let avail = self.net.with(|w| w.tcp_available(sid));
            if avail == 0 {
                self.net.with(|w| {
                    let mut probe = [0u8; 0];
                    match w.tcp_recv(sid, &mut probe) {
                        Recv::Closed => eof = true,
                        Recv::Reset => reset = true,
                        Recv::Data(_) | Recv::WouldBlock => {}
                    }
                });
                break;
            }
            let mut buf = vec![0u8; avail];
            let n = self.net.with(|w| match w.tcp_recv(sid, &mut buf) {
                Recv::Data(n) => n,
                Recv::Closed | Recv::Reset | Recv::WouldBlock => 0,
            });
            if n == 0 {
                break;
            }
            let conn = self.conns.get_mut(&sid).expect("pumped conn exists");
            if conn.kind.feed(&buf[..n]).is_err() {
                break;
            }
        }

        let now = self.net.now();
        let conn = self.conns.get_mut(&sid).expect("pumped conn exists");
        if eof {
            conn.kind.feed_eof();
        }

        let mut fail_kind = match conn.kind.error() {
            Some(e) => Some(error_kind(e)),
            None if reset => Some("reset"),
            None => None,
        };
        // (handshake latency, echo round trip) of a completed client.
        let mut completed = None;
        let mut hs_span: Option<(String, u64)> = None;
        if fail_kind.is_none() {
            match &mut conn.kind {
                ConnKind::Echo(machine) => {
                    let plain = machine.take_plaintext();
                    if !plain.is_empty() && machine.write(&plain).is_err() {
                        fail_kind = Some(machine.error().map_or("write", error_kind));
                    } else if machine.is_peer_closed() {
                        conn.want_close = true;
                    }
                }
                ConnKind::Client(c) => {
                    if c.echo.is_established() && c.established_us.is_none() {
                        c.established_us = Some(now);
                        hs_span = Some((c.suite_label.clone(), c.hs_start_us));
                    }
                    if c.echo.step().is_err() {
                        fail_kind = Some("write");
                    } else {
                        let payload = &c.echo.messages()[0];
                        if c.echo.echoed().len() >= payload.len() && !payload.is_empty() {
                            if c.echo.echoed() == payload {
                                // The schedule closed the session with this echo.
                                let done = c.established_us.unwrap_or(c.hs_start_us);
                                completed = Some((done - c.hs_start_us, now - done));
                                conn.want_close = true;
                            } else {
                                fail_kind = Some("echo_mismatch");
                            }
                        } else if c.echo.is_peer_closed() {
                            // Peer went away before the echo finished.
                            fail_kind = Some("premature_close");
                        }
                    }
                }
            }
        }

        if let Some((suite, start)) = hs_span {
            self.spans.record("handshake", start, now);
            self.registry
                .counter("serve.handshakes", &[("suite", &suite)])
                .inc();
        }
        if let Some(kind) = fail_kind {
            self.fail(sid, kind);
            return;
        }
        if let Some((latency, rtt)) = completed {
            self.handshake_us.push(latency);
            self.hs_hist.record(latency);
            self.echo_hist.record(rtt);
            self.completed += 1;
            self.completed_ctr.inc();
        }
        self.flush(sid);
    }

    /// Moves machine output into the TCP send buffer as far as flow
    /// control allows; the rest waits for a `WindowOpen` event.
    fn flush(&mut self, sid: SocketId) {
        let net = self.net.clone();
        let Some(conn) = self.conns.get_mut(&sid) else {
            return;
        };
        conn.out_pending.extend(conn.kind.take_output());
        let mut failed = false;
        while !conn.out_pending.is_empty() {
            let room = net.with(|w| w.tcp_send_room(sid));
            if room == 0 {
                // Not established yet or flow-controlled: Established /
                // WindowOpen will retry.
                return;
            }
            match net.with(|w| w.tcp_send(sid, &conn.out_pending)) {
                Ok(0) => return,
                Ok(n) => {
                    conn.out_pending.drain(..n);
                }
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        let do_close = !failed && conn.want_close && conn.out_pending.is_empty();
        if failed {
            self.fail(sid, "send");
            return;
        }
        if do_close {
            // Completed clients were already counted in pump.
            self.conns.remove(&sid);
            let _ = net.with(|w| w.tcp_close(sid));
        }
    }

    /// Tears a connection down after an unrecoverable error, counting it
    /// under `serve.errors{kind=...}`.
    fn fail(&mut self, sid: SocketId, kind: &str) {
        if let Some(conn) = self.conns.remove(&sid) {
            if matches!(conn.kind, ConnKind::Client(_)) {
                self.failed += 1;
                self.failed_ctr.inc();
            }
            self.registry.counter("serve.errors", &[("kind", kind)]).inc();
        }
        let _ = self.net.with(|w| w.tcp_close(sid));
    }
}

impl std::fmt::Debug for EventLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLoop")
            .field("listeners", &self.listeners.len())
            .field("conns", &self.conns.len())
            .field("completed", &self.completed)
            .field("failed", &self.failed)
            .finish()
    }
}

/// Parameters for the deterministic mass-concurrency load run.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Concurrent client sessions to drive.
    pub clients: usize,
    /// World / PRNG seed; identical specs give identical runs.
    pub seed: u64,
    /// Echo payload per session, in bytes.
    pub payload_len: usize,
    /// Client hosts to spread the sessions across (each gets its own
    /// link, so this scales aggregate wire bandwidth).
    pub client_hosts: usize,
    /// Virtual-time budget in microseconds.
    pub deadline_us: u64,
}

impl LoadSpec {
    /// A deterministic spec for `clients` concurrent sessions.
    pub fn concurrency(clients: usize) -> LoadSpec {
        LoadSpec {
            clients,
            seed: 7,
            payload_len: 256,
            client_hosts: clients.clamp(1, 8),
            deadline_us: 120_000_000,
        }
    }
}

/// Runs the load generator: `spec.clients` concurrent pre-shared-key
/// sessions (the RMC suite, AES-128/128) through handshake + echo against
/// one event-loop server in one deterministic world, and reports the
/// outcome with the end-of-run telemetry snapshot.
pub fn run_load(spec: &LoadSpec) -> ServeReport {
    let psk = b"rmc2000 shared secret".to_vec();
    let server_cfg = ServerConfig {
        suites: vec![crate::session::CipherSuite::AES128],
        kx: ServerKx::PreShared(psk.clone()),
    };
    let client_cfg = ClientConfig {
        suite: crate::session::CipherSuite::AES128,
        kx: ClientKx::PreShared(psk),
    };

    let net = Net::new(spec.seed);
    let server_ip = Ipv4::new(10, 0, 0, 1);
    let server = net.add_host(server_ip);
    let mut hosts = Vec::new();
    for i in 0..spec.client_hosts.max(1) {
        let ip = Ipv4::new(10, 0, 1 + (i / 200) as u8, (2 + i % 200) as u8);
        let h = net.add_host(ip);
        net.link(server, h, LinkParams::ethernet_10base_t());
        hosts.push(h);
    }

    let mut el = EventLoop::new(&net);
    el.listen_echo(server, 4433, spec.clients.max(16), server_cfg, spec.seed ^ 0x5eed)
        .expect("listen");

    let payload: Vec<u8> = (0..spec.payload_len).map(|i| (i % 251) as u8).collect();
    for i in 0..spec.clients {
        let host = hosts[i % hosts.len()];
        el.connect_echo_client(
            host,
            Endpoint::new(server_ip, 4433),
            client_cfg.clone(),
            payload.clone(),
            spec.seed.wrapping_mul(0x100_0000)
                .wrapping_add(i as u64),
        );
    }
    el.run(spec.deadline_us);
    el.report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_concurrent_sessions_complete() {
        let report = run_load(&LoadSpec::concurrency(10));
        assert_eq!(report.completed, 10);
        assert_eq!(report.failed, 0);
        assert!(report.handshake_percentile_us(50.0) > 0);
    }

    #[test]
    fn identical_specs_are_deterministic() {
        let a = run_load(&LoadSpec::concurrency(12));
        let b = run_load(&LoadSpec::concurrency(12));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.elapsed_us, b.elapsed_us);
        assert_eq!(a.handshake_us, b.handshake_us);
    }

    #[test]
    fn percentiles_are_ordered() {
        let report = run_load(&LoadSpec::concurrency(25));
        assert_eq!(report.completed, 25);
        let p50 = report.handshake_percentile_us(50.0);
        let p99 = report.handshake_percentile_us(99.0);
        assert!(p50 <= p99);
    }

    #[test]
    fn snapshot_mirrors_the_report_and_is_deterministic() {
        let a = run_load(&LoadSpec::concurrency(12));
        let b = run_load(&LoadSpec::concurrency(12));
        assert_eq!(
            a.snapshot.to_json(),
            b.snapshot.to_json(),
            "same seed, byte-identical telemetry dump"
        );
        assert_eq!(a.snapshot.counter("serve.sessions.completed", &[]), 12);
        assert_eq!(a.snapshot.counter("serve.sessions.failed", &[]), 0);
        assert_eq!(a.snapshot.counter("serve.accepted", &[]), 12);
        assert_eq!(
            a.snapshot
                .counter("serve.handshakes", &[("suite", "aes128-128")]),
            12
        );

        // The histogram saw exactly the latencies the Vec kept.
        let h = a.snapshot.histogram("serve.handshake_us", &[]).expect("histogram");
        assert_eq!(h.count(), 12);
        assert_eq!(h.sum(), a.handshake_us.iter().sum::<u64>());
        assert_eq!(h.max(), *a.handshake_us.iter().max().unwrap());

        // The same snapshot carries the network layer underneath.
        assert!(a.snapshot.counter("net.packets.delivered", &[]) > 0);
        assert!(a.snapshot.counter("net.tcp.bytes_delivered", &[]) > 0);
    }

    #[test]
    fn handshake_spans_are_recorded_in_virtual_time() {
        let psk = b"span test".to_vec();
        let server_cfg = ServerConfig {
            suites: vec![CipherSuite::AES128],
            kx: ServerKx::PreShared(psk.clone()),
        };
        let client_cfg = ClientConfig {
            suite: CipherSuite::AES128,
            kx: ClientKx::PreShared(psk),
        };
        let net = Net::new(11);
        let server_ip = Ipv4::new(10, 0, 0, 1);
        let server = net.add_host(server_ip);
        let client = net.add_host(Ipv4::new(10, 0, 0, 2));
        net.link(server, client, LinkParams::ethernet_10base_t());

        let mut el = EventLoop::new(&net);
        el.listen_echo(server, 4433, 4, server_cfg, 3).expect("listen");
        el.connect_echo_client(
            client,
            Endpoint::new(server_ip, 4433),
            client_cfg,
            b"ping".to_vec(),
            5,
        );
        el.run(10_000_000);

        let spans = el.spans().spans();
        assert_eq!(spans.len(), 1, "one handshake span: {spans:?}");
        assert_eq!(spans[0].name, "handshake");
        assert!(spans[0].end > spans[0].start, "span has virtual duration");
        let report = el.report();
        assert_eq!(report.completed, 1);
        assert_eq!(spans[0].duration(), report.handshake_us[0]);
    }

    #[test]
    fn failed_sessions_land_in_error_counters() {
        // A client expecting RSA against a pre-shared-key server fails
        // the handshake; the failure shows up labeled by kind.
        let psk = b"kx mismatch".to_vec();
        let server_cfg = ServerConfig {
            suites: vec![CipherSuite::AES128],
            kx: ServerKx::PreShared(psk),
        };
        let client_cfg = ClientConfig {
            suite: CipherSuite::AES128,
            kx: ClientKx::Rsa,
        };
        let net = Net::new(13);
        let server_ip = Ipv4::new(10, 0, 0, 1);
        let server = net.add_host(server_ip);
        let client = net.add_host(Ipv4::new(10, 0, 0, 2));
        net.link(server, client, LinkParams::ethernet_10base_t());

        let mut el = EventLoop::new(&net);
        el.listen_echo(server, 4433, 4, server_cfg, 3).expect("listen");
        el.connect_echo_client(
            client,
            Endpoint::new(server_ip, 4433),
            client_cfg,
            b"ping".to_vec(),
            5,
        );
        el.run(10_000_000);

        let report = el.report();
        assert_eq!(report.completed, 0);
        assert_eq!(report.failed, 1);
        let snap = el.telemetry().snapshot();
        assert_eq!(snap.counter("serve.sessions.failed", &[]), 1);
        let errors: u64 = snap
            .entries()
            .iter()
            .filter(|(k, _)| k.name == "serve.errors")
            .map(|(_, v)| match v {
                telemetry::SnapshotValue::Counter(c) => *c,
                _ => 0,
            })
            .sum();
        assert!(errors >= 1, "error kind counted: {}", snap.to_text());
    }
}
