//! Socket-backend parity: the paper's substrate must behave identically
//! whether hosts exchange payloads through in-memory channels or real
//! sockets. These tests assert the strict contract from DESIGN.md's
//! "Transport backends" section — labels, payload byte/message/round
//! counters, and report fingerprints are bit-identical across backends —
//! for both in-process socket meshes ([`Run::transport_sockets`]) and
//! genuinely separate worker processes ([`spawn_local_cluster`] driving
//! the `gluon-host` binary), plus the typed failure behavior when a
//! worker process dies mid-run.

use bytes::Bytes;
use gluon_algos::launcher::{spawn_local_cluster, ClusterSpec, LaunchError};
use gluon_algos::{Algorithm, Run};
use gluon_graph::gen;
use gluon_metrics::MetricsHub;
use gluon_net::{
    CostModel, MemoryTransport, NetError, NetStats, SocketFactory, SocketKind, Transport,
};
use gluon_partition::Policy;
use std::time::Duration;

/// The worker binary built alongside this test suite.
fn host_bin() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_BIN_EXE_gluon-host"))
}

/// Asserts the payload-level equivalence contract between two outcomes:
/// identical labels (bit-for-bit for f64 ranks), identical round counts,
/// and identical per-host-pair payload traffic.
fn assert_outcomes_match(
    memory: &gluon_algos::DistOutcome,
    socket: &gluon_algos::DistOutcome,
    what: &str,
) {
    assert_eq!(memory.int_labels, socket.int_labels, "{what}: int labels");
    assert_eq!(
        memory.ranks.len(),
        socket.ranks.len(),
        "{what}: rank vector length"
    );
    for (i, (a, b)) in memory.ranks.iter().zip(&socket.ranks).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: rank of node {i} must match bit-for-bit"
        );
    }
    assert_eq!(memory.rounds, socket.rounds, "{what}: rounds");
    assert_eq!(memory.net.bytes, socket.net.bytes, "{what}: payload bytes");
    assert_eq!(
        memory.net.messages, socket.net.messages,
        "{what}: payload messages"
    );
    assert_eq!(
        memory.run.total_bytes, socket.run.total_bytes,
        "{what}: aggregated sync bytes"
    );
}

/// Where a hub exposes the socket backend's frame counter: its Prometheus
/// sample lines with the values cut off (the labels say which registry).
fn frames_sent_samples(hub: &MetricsHub) -> Vec<String> {
    hub.prometheus()
        .lines()
        .filter(|l| l.starts_with("gluon_net_socket_frames_sent"))
        .map(|l| {
            l.rsplit_once(' ')
                .expect("a sample has a value")
                .0
                .to_owned()
        })
        .collect()
}

#[test]
fn bfs_socket_parity_across_policies_and_families() {
    let g = gen::rmat(7, 6, Default::default(), 11);
    for policy in [Policy::Oec, Policy::Cvc] {
        let memory = Run::new(&g, Algorithm::Bfs)
            .hosts(3)
            .policy(policy)
            .launch();
        for kind in [SocketKind::Tcp, SocketKind::Unix] {
            let socket = Run::new(&g, Algorithm::Bfs)
                .hosts(3)
                .policy(policy)
                .transport_sockets(kind)
                .launch();
            assert_outcomes_match(&memory, &socket, &format!("bfs {policy:?} {kind:?}"));
        }
    }
}

#[test]
fn pagerank_socket_parity_across_policies_and_families() {
    let g = gen::rmat(7, 6, Default::default(), 12);
    for policy in [Policy::Oec, Policy::Cvc] {
        let memory = Run::new(&g, Algorithm::Pagerank)
            .hosts(3)
            .policy(policy)
            .launch();
        for kind in [SocketKind::Tcp, SocketKind::Unix] {
            let socket = Run::new(&g, Algorithm::Pagerank)
                .hosts(3)
                .policy(policy)
                .transport_sockets(kind)
                .launch();
            assert_outcomes_match(&memory, &socket, &format!("pr {policy:?} {kind:?}"));
        }
    }
}

#[test]
fn fingerprints_match_across_backends_in_process() {
    let g = gen::rmat(7, 6, Default::default(), 13);
    let hub_mem = MetricsHub::new(3);
    let memory = Run::new(&g, Algorithm::Bfs)
        .hosts(3)
        .metrics(&hub_mem)
        .launch();
    let hub_sock = MetricsHub::new(3);
    let socket = Run::new(&g, Algorithm::Bfs)
        .hosts(3)
        .metrics(&hub_sock)
        .transport_sockets(SocketKind::Tcp)
        .launch();
    let model = CostModel::default();
    assert_eq!(
        memory.report(&hub_mem, &model).fingerprint(),
        socket.report(&hub_sock, &model).fingerprint(),
        "socket wire mechanics must not leak into the deterministic report"
    );
}

/// One peer-death script for a pair of endpoints of either backend:
/// host 1 sends two frames and dies. Host 0 must get both frames, in
/// order, and then a `PeerDown` naming host 1 and host 0's own round from
/// a named receive, an any-source receive and a send.
fn peer_death_script<T: Transport>(survivor: T, doomed: T) {
    survivor.note_round(3);
    for frame in [&b"first"[..], b"second"] {
        doomed
            .try_send(0, 5, Bytes::copy_from_slice(frame))
            .expect("send");
    }
    drop(doomed);
    assert_eq!(&survivor.try_recv(1, 5).expect("first frame")[..], b"first");
    let second = survivor.try_recv_any(5).expect("second frame");
    assert_eq!((second.src, &second.payload[..]), (1, &b"second"[..]));
    let down = NetError::PeerDown { peer: 1, round: 3 };
    assert_eq!(survivor.try_recv(1, 5), Err(down));
    assert_eq!(survivor.try_recv_any(5).map(|env| env.src), Err(down));
    assert_eq!(survivor.try_send(1, 5, Bytes::new()), Err(down));
}

/// Runs [`peer_death_script`] on its own thread: a call that hangs fails
/// the test after ten seconds, and one that panics fails it at once.
fn check_peer_death<T: Transport + 'static>(survivor: T, doomed: T, backend: &str) {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        peer_death_script(survivor, doomed);
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(10)) {
        Ok(()) => {}
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("{backend}: a call hung"),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            panic!("{backend}: the script panicked")
        }
    }
}

/// A peer's death is typed identically on both backends: an in-memory
/// endpoint dropped, and an in-process Unix-socket endpoint closed.
#[test]
fn peer_death_is_typed_identically_on_both_backends() {
    let mut eps = MemoryTransport::cluster(2);
    let doomed = eps.pop().expect("endpoint 1");
    let survivor = eps.pop().expect("endpoint 0");
    check_peer_death(survivor, doomed, "memory");

    let factory = SocketFactory::new(SocketKind::Unix);
    let stats = NetStats::new(2);
    let (survivor, doomed) = std::thread::scope(|s| {
        let one = s.spawn(|| factory.endpoint(1, 2, stats.clone(), 0).expect("bootstrap"));
        let zero = factory.endpoint(0, 2, stats.clone(), 0).expect("bootstrap");
        (zero, one.join().expect("bootstrap thread"))
    });
    check_peer_death(survivor, doomed, "unix socket");
}

/// A 4-host pagerank where each host is a separate OS process exchanging
/// payloads over TCP produces labels, counters, and a report fingerprint
/// bit-identical to the in-memory backend — and exposes the socket
/// backend's wire counters where an in-process socket run does.
#[test]
fn process_cluster_pagerank_matches_memory_bit_for_bit() {
    let g = gen::rmat(7, 6, Default::default(), 14);
    let hub_mem = MetricsHub::new(4);
    let memory = Run::new(&g, Algorithm::Pagerank)
        .hosts(4)
        .metrics(&hub_mem)
        .launch();
    let mut spec = ClusterSpec::new(4, Algorithm::Pagerank);
    spec.host_bin = Some(host_bin());
    let cluster = spawn_local_cluster(&g, &spec).expect("4-process cluster completes");
    assert_outcomes_match(&memory, &cluster.outcome, "4-process pagerank");
    assert_eq!(cluster.outcome.recoveries, 0);
    let model = CostModel::default();
    assert_eq!(
        memory.report(&hub_mem, &model).fingerprint(),
        cluster.outcome.report(&cluster.hub, &model).fingerprint(),
        "process-cluster report must fingerprint identically to the memory backend"
    );

    let hub_sock = MetricsHub::new(4);
    Run::new(&g, Algorithm::Pagerank)
        .hosts(4)
        .metrics(&hub_sock)
        .transport_sockets(SocketKind::Tcp)
        .launch();
    let in_process = frames_sent_samples(&hub_sock);
    assert!(
        !in_process.is_empty(),
        "an in-process socket run must export its frame counter"
    );
    assert_eq!(
        frames_sent_samples(&cluster.hub),
        in_process,
        "both socket backends must export the frame counter in the same registry"
    );
}

/// Unix-domain variant of the process-level parity check (bfs: the
/// launcher must also ship integer labels faithfully).
#[test]
fn process_cluster_bfs_over_unix_sockets_matches_memory() {
    let g = gen::rmat(7, 6, Default::default(), 15);
    let memory = Run::new(&g, Algorithm::Bfs).hosts(3).launch();
    let mut spec = ClusterSpec::new(3, Algorithm::Bfs);
    spec.kind = SocketKind::Unix;
    spec.host_bin = Some(host_bin());
    let cluster = spawn_local_cluster(&g, &spec).expect("3-process UDS cluster completes");
    assert_outcomes_match(&memory, &cluster.outcome, "3-process uds bfs");
}

/// A worker killed abruptly mid-run (process abort: no socket teardown,
/// no farewell) must surface to its peers as a typed peer-death error —
/// and with a checkpoint plus recovery budget, the parent relaunches and
/// the final labels match a crash-free run. Completing at all (under the
/// watchdog) proves nobody hung on the dead peer.
#[test]
fn killed_worker_recovers_to_identical_labels() {
    let g = gen::rmat(7, 6, Default::default(), 16);
    let memory = Run::new(&g, Algorithm::Bfs).hosts(3).launch();
    let mut spec = ClusterSpec::new(3, Algorithm::Bfs);
    spec.host_bin = Some(host_bin());
    spec.ckpt_every = Some(1);
    spec.max_recoveries = 1;
    spec.crash = Some((1, 2));
    let cluster = spawn_local_cluster(&g, &spec).expect("cluster recovers from the kill");
    assert_eq!(
        cluster.outcome.int_labels, memory.int_labels,
        "recovered run must match a crash-free run"
    );
    assert_eq!(cluster.outcome.recoveries, 1, "exactly one relaunch");
    let supervisor = cluster.hub.cluster();
    assert_eq!(
        supervisor.counter_value("attempts"),
        2,
        "the shared supervisor loop publishes its attempts"
    );
    assert_eq!(
        supervisor.counter_value("recoveries"),
        1,
        "the shared supervisor loop publishes its recoveries"
    );
}

/// Without a recovery budget the same kill must yield a typed error
/// carrying the peers' evidence — not a hang, not a panic.
#[test]
fn killed_worker_without_budget_fails_with_typed_peer_death() {
    let g = gen::rmat(7, 6, Default::default(), 17);
    let mut spec = ClusterSpec::new(3, Algorithm::Bfs);
    spec.host_bin = Some(host_bin());
    spec.crash = Some((1, 2));
    match spawn_local_cluster(&g, &spec) {
        Err(LaunchError::Unrecoverable { attempts, evidence }) => {
            assert_eq!(attempts, 1);
            let joined = evidence.join("\n");
            assert!(
                joined.contains("declared down") || joined.contains("unreachable"),
                "survivors must report a typed peer failure, got: {joined}"
            );
        }
        Err(other) => panic!("expected Unrecoverable, got {other}"),
        Ok(_) => panic!("a killed worker with no recovery budget cannot succeed"),
    }
}
