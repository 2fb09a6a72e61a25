//! Cluster bootstrap for [`crate::SocketTransport`].
//!
//! Turning N freshly spawned processes into a fully connected mesh takes
//! two phases, both built from the same length-prefixed primitives:
//!
//! 1. **Rendezvous.** Rank 0 binds a listener at a well-known address
//!    (the only piece of configuration a launcher must distribute — for
//!    TCP an ephemeral port is fine because [`Rendezvous::advertised`]
//!    reports the actual address to print for the other workers). Every
//!    other rank binds its own *mesh* listener on an ephemeral address,
//!    connects to the rendezvous with retry-and-backoff (workers race the
//!    leader's bind), and sends `rank` plus its mesh address. Once all
//!    `world - 1` workers have checked in, rank 0 replies to each with
//!    the full address table.
//! 2. **Mesh.** With the table in hand, rank `r` *connects* to every peer
//!    `p < r` (announcing itself with a `u32` hello) and *accepts* one
//!    connection from every peer `p > r`. The triangular orientation
//!    means every pair establishes exactly one stream and nobody
//!    deadlocks waiting on a peer that is waiting on them.
//!
//! Connection attempts feed the `socket_connects` /
//! `socket_reconnect_attempts` counters on [`NetStats`], so bootstrap
//! behavior is observable in reports like any other wire mechanic.
//!
//! Addresses travel as strings of the form `tcp://127.0.0.1:4242` or
//! `unix:///tmp/dir/gluon.sock`; Unix-domain mesh listeners derive their
//! paths from the rendezvous path (`<path>.r<rank>`), so keep rendezvous
//! paths short — the kernel caps socket paths at ~100 bytes.

use crate::socket::{PeerStream, SocketTransport};
use crate::stats::NetStats;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How long `join` keeps retrying a refused connection before giving up.
/// Generous: covers a launcher that spawns workers before the leader has
/// bound its listener, and CI machines under load.
const CONNECT_BUDGET: Duration = Duration::from_secs(20);

/// First retry delay; doubles per attempt up to [`MAX_BACKOFF`].
const INITIAL_BACKOFF: Duration = Duration::from_millis(10);

/// Ceiling on the connect retry delay.
const MAX_BACKOFF: Duration = Duration::from_millis(250);

/// Read timeout on bootstrap streams so a half-dead peer fails the
/// bootstrap with a typed I/O error instead of hanging the process.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed transport address: TCP endpoint or Unix-domain socket path.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Addr {
    Tcp(String),
    Unix(PathBuf),
}

impl Addr {
    fn parse(s: &str) -> io::Result<Addr> {
        if let Some(rest) = s.strip_prefix("tcp://") {
            Ok(Addr::Tcp(rest.to_string()))
        } else if let Some(rest) = s.strip_prefix("unix://") {
            Ok(Addr::Unix(PathBuf::from(rest)))
        } else {
            Err(io::Error::new(
                ErrorKind::InvalidInput,
                format!("address must start with tcp:// or unix://, got {s:?}"),
            ))
        }
    }

    fn to_url(&self) -> String {
        match self {
            Addr::Tcp(a) => format!("tcp://{a}"),
            Addr::Unix(p) => format!("unix://{}", p.display()),
        }
    }
}

/// A bound listener of either family.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds a mesh or rendezvous listener at `addr`. TCP addresses may
    /// use port 0 (the bound address is reported back); stale Unix socket
    /// files are removed first.
    fn bind(addr: &Addr) -> io::Result<Listener> {
        match addr {
            Addr::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                Ok(Listener::Tcp(l))
            }
            Addr::Unix(p) => {
                // A previous run's socket file would make bind fail with
                // AddrInUse even though nobody is listening.
                let _ = std::fs::remove_file(p);
                let l = UnixListener::bind(p)?;
                Ok(Listener::Unix(l, p.clone()))
            }
        }
    }

    /// The actual bound address (resolves TCP port 0).
    fn local_addr(&self) -> io::Result<Addr> {
        match self {
            Listener::Tcp(l) => Ok(Addr::Tcp(l.local_addr()?.to_string())),
            Listener::Unix(_, p) => Ok(Addr::Unix(p.clone())),
        }
    }

    /// Accepts one connection with the handshake read timeout applied.
    fn accept(&self) -> io::Result<PeerStream> {
        let stream = match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                PeerStream::Tcp(s)
            }
            Listener::Unix(l, _) => PeerStream::Unix(l.accept()?.0),
        };
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        Ok(stream)
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, p) = self {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Connects to `addr`, retrying refused/absent endpoints with exponential
/// backoff until [`CONNECT_BUDGET`] elapses. Retries are counted as
/// `socket_reconnect_attempts`; the eventual success as a
/// `socket_connects`.
fn connect_with_retry(addr: &Addr, stats: &NetStats) -> io::Result<PeerStream> {
    let deadline = Instant::now() + CONNECT_BUDGET;
    let mut backoff = INITIAL_BACKOFF;
    let mut first = true;
    loop {
        let attempt = match addr {
            Addr::Tcp(a) => TcpStream::connect(a).map(PeerStream::Tcp),
            Addr::Unix(p) => UnixStream::connect(p).map(PeerStream::Unix),
        };
        match attempt {
            Ok(stream) => {
                if let PeerStream::Tcp(s) = &stream {
                    s.set_nodelay(true)?;
                }
                stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
                stats.record_socket_connect();
                return Ok(stream);
            }
            Err(e) => {
                if Instant::now() + backoff > deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!(
                            "connect to {} exhausted its retry budget: {e}",
                            addr.to_url()
                        ),
                    ));
                }
                if !first {
                    stats.record_socket_reconnect_attempt();
                }
                first = false;
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
        }
    }
}

fn write_u32(s: &mut PeerStream, v: u32) -> io::Result<()> {
    s.write_all(&v.to_le_bytes())
}

fn read_u32(s: &mut PeerStream) -> io::Result<u32> {
    let mut b = [0u8; 4];
    s.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn write_str(s: &mut PeerStream, v: &str) -> io::Result<()> {
    write_u32(s, v.len() as u32)?;
    s.write_all(v.as_bytes())
}

fn read_str(s: &mut PeerStream) -> io::Result<String> {
    let len = read_u32(s)? as usize;
    if len > 4096 {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            "bootstrap address implausibly long",
        ));
    }
    let mut b = vec![0u8; len];
    s.read_exact(&mut b)?;
    String::from_utf8(b).map_err(|_| io::Error::new(ErrorKind::InvalidData, "non-UTF8 address"))
}

/// Rank 0's bound rendezvous listener.
///
/// Two-step construction (bind, then [`Rendezvous::lead`]) lets the
/// worker process report the actual address — ephemeral TCP ports
/// included — to its launcher *before* blocking for the other workers.
pub struct Rendezvous {
    listener: Listener,
    advertised: String,
}

impl Rendezvous {
    /// Binds a TCP rendezvous listener, e.g. at `"127.0.0.1:0"`.
    pub fn bind_tcp(addr: &str) -> io::Result<Rendezvous> {
        Self::bind(&Addr::Tcp(addr.to_string()))
    }

    /// Binds a Unix-domain rendezvous listener at `path`. Mesh listeners
    /// derive their socket files from this path (`<path>.r<rank>`), so
    /// place it in a run-private directory with a short absolute path.
    pub fn bind_unix(path: &Path) -> io::Result<Rendezvous> {
        Self::bind(&Addr::Unix(path.to_path_buf()))
    }

    fn bind(addr: &Addr) -> io::Result<Rendezvous> {
        let listener = Listener::bind(addr)?;
        let advertised = listener.local_addr()?.to_url();
        Ok(Rendezvous {
            listener,
            advertised,
        })
    }

    /// The address workers must [`join`] — pass it to the launcher (e.g.
    /// print it on stdout) before calling [`Rendezvous::lead`].
    pub fn advertised(&self) -> &str {
        &self.advertised
    }

    /// Runs rank 0's side of the bootstrap: collects every worker's mesh
    /// address, hands each the full table, then accepts the mesh
    /// connections from all higher ranks. Returns the live endpoint.
    ///
    /// # Errors
    ///
    /// Any I/O failure during the handshake, including a worker that
    /// checks in with an out-of-range or duplicate rank.
    ///
    /// # Panics
    ///
    /// Panics if `world` is zero or `stats` is sized differently.
    pub fn lead(self, world: usize, stats: NetStats) -> io::Result<SocketTransport> {
        assert!(world > 0, "cluster needs at least one host");
        assert_eq!(stats.world_size(), world, "stats sized for world");
        let mesh_addr = self.mesh_addr_for_rank(0)?;
        let mesh = Listener::bind(&mesh_addr)?;
        let mut table: Vec<Option<String>> = vec![None; world];
        table[0] = Some(mesh.local_addr()?.to_url());
        // Collect every worker's mesh address.
        let mut checkins: Vec<(usize, PeerStream)> = Vec::with_capacity(world - 1);
        while checkins.len() < world - 1 {
            let mut s = self.listener.accept()?;
            stats.record_socket_connect();
            let rank = read_u32(&mut s)? as usize;
            if rank == 0 || rank >= world {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("worker announced out-of-range rank {rank}"),
                ));
            }
            let addr = read_str(&mut s)?;
            if table[rank].replace(addr).is_some() {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("two workers announced rank {rank}"),
                ));
            }
            checkins.push((rank, s));
        }
        let full: Vec<String> = table
            .into_iter()
            .map(|a| a.expect("every rank checked in"))
            .collect();
        // Hand the table to every worker; they proceed to the mesh phase.
        for (_, s) in checkins.iter_mut() {
            for addr in &full {
                write_str(s, addr)?;
            }
        }
        drop(checkins);
        accept_mesh(0, world, mesh, stats)
    }

    /// Derives the mesh-listener address for `rank` from the rendezvous
    /// address: TCP reuses the rendezvous interface with an ephemeral
    /// port; Unix appends `.r<rank>` to the rendezvous path.
    fn mesh_addr_for_rank(&self, rank: usize) -> io::Result<Addr> {
        mesh_addr(&Addr::parse(&self.advertised)?, rank)
    }
}

fn mesh_addr(rendezvous: &Addr, rank: usize) -> io::Result<Addr> {
    match rendezvous {
        Addr::Tcp(a) => {
            let host = a.rsplit_once(':').map(|(h, _)| h).unwrap_or("127.0.0.1");
            Ok(Addr::Tcp(format!("{host}:0")))
        }
        Addr::Unix(p) => {
            let mut path = p.as_os_str().to_os_string();
            path.push(format!(".r{rank}"));
            Ok(Addr::Unix(PathBuf::from(path)))
        }
    }
}

/// Runs a worker's (`rank >= 1`) side of the bootstrap against the
/// leader's advertised rendezvous address and returns the live endpoint.
///
/// # Errors
///
/// Any I/O failure: rendezvous unreachable past the retry budget, a
/// malformed address table, or a mesh peer that cannot be reached.
///
/// # Panics
///
/// Panics if `rank` is zero (the leader bootstraps via
/// [`Rendezvous::lead`]), `rank` is out of range, or `stats` is sized
/// differently.
pub fn join(
    advertised: &str,
    rank: usize,
    world: usize,
    stats: NetStats,
) -> io::Result<SocketTransport> {
    assert!(rank > 0, "rank 0 must bootstrap via Rendezvous::lead");
    assert!(rank < world, "rank out of range");
    assert_eq!(stats.world_size(), world, "stats sized for world");
    let rendezvous = Addr::parse(advertised)?;
    let mesh = Listener::bind(&mesh_addr(&rendezvous, rank)?)?;
    let mut leader = connect_with_retry(&rendezvous, &stats)?;
    write_u32(&mut leader, rank as u32)?;
    write_str(&mut leader, &mesh.local_addr()?.to_url())?;
    let mut table = Vec::with_capacity(world);
    for _ in 0..world {
        table.push(read_str(&mut leader)?);
    }
    drop(leader);
    // Triangular mesh: connect down, accept up.
    let mut conns: Vec<Option<PeerStream>> = (0..world).map(|_| None).collect();
    for (peer, slot) in conns.iter_mut().enumerate().take(rank) {
        let mut s = connect_with_retry(&Addr::parse(&table[peer])?, &stats)?;
        write_u32(&mut s, rank as u32)?;
        *slot = Some(s);
    }
    accept_mesh_into(rank, world, &mesh, &stats, &mut conns)?;
    SocketTransport::from_conns(rank, world, conns, stats)
}

/// Accepts mesh connections from every rank above `rank` and builds the
/// endpoint (leader-side tail of the bootstrap).
fn accept_mesh(
    rank: usize,
    world: usize,
    mesh: Listener,
    stats: NetStats,
) -> io::Result<SocketTransport> {
    let mut conns: Vec<Option<PeerStream>> = (0..world).map(|_| None).collect();
    accept_mesh_into(rank, world, &mesh, &stats, &mut conns)?;
    SocketTransport::from_conns(rank, world, conns, stats)
}

fn accept_mesh_into(
    rank: usize,
    world: usize,
    mesh: &Listener,
    stats: &NetStats,
    conns: &mut [Option<PeerStream>],
) -> io::Result<()> {
    for _ in rank + 1..world {
        let mut s = mesh.accept()?;
        stats.record_socket_connect();
        let peer = read_u32(&mut s)? as usize;
        if peer <= rank || peer >= world {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("mesh hello from unexpected rank {peer}"),
            ));
        }
        if conns[peer].replace(s).is_some() {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("rank {peer} connected twice"),
            ));
        }
    }
    Ok(())
}

/// Which socket family a cluster should run over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketKind {
    /// TCP over the loopback interface.
    Tcp,
    /// Unix-domain sockets in a run-private temporary directory.
    Unix,
}

/// In-process bootstrap coordinator: hands every rank of a threaded
/// cluster a [`SocketTransport`], so a run that normally uses
/// [`crate::MemoryTransport`] can exercise the real wire path without
/// spawning processes.
///
/// Rank 0's [`SocketFactory::endpoint`] call binds a fresh rendezvous
/// (one per supervisor attempt) and publishes its address; the other
/// ranks' calls block until that address appears, then [`join`]. The
/// factory owns the Unix-socket directory and removes it on drop.
pub struct SocketFactory {
    kind: SocketKind,
    unix_dir: Option<PathBuf>,
    published: std::sync::Mutex<std::collections::HashMap<u32, String>>,
    ready: std::sync::Condvar,
}

impl SocketFactory {
    /// A factory for `kind` sockets.
    ///
    /// # Panics
    ///
    /// Panics if the Unix-socket scratch directory cannot be created.
    pub fn new(kind: SocketKind) -> SocketFactory {
        static UNIQUE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let unix_dir = match kind {
            SocketKind::Tcp => None,
            SocketKind::Unix => {
                let n = UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let dir = std::env::temp_dir().join(format!("gluon-sf-{}-{n}", std::process::id()));
                std::fs::create_dir_all(&dir).expect("socket scratch dir");
                Some(dir)
            }
        };
        SocketFactory {
            kind,
            unix_dir,
            published: std::sync::Mutex::new(std::collections::HashMap::new()),
            ready: std::sync::Condvar::new(),
        }
    }

    /// Bootstraps `rank`'s endpoint for supervisor attempt `attempt`.
    /// Blocks until the whole mesh for that attempt is up; every rank of
    /// an attempt must call this (ranks above 0 wait for rank 0's
    /// rendezvous address, bounded by the connect budget).
    ///
    /// # Errors
    ///
    /// Any bootstrap I/O failure, or a timeout waiting for rank 0.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range or `stats` is sized differently
    /// (see [`Rendezvous::lead`] / [`join`]).
    pub fn endpoint(
        &self,
        rank: usize,
        world: usize,
        stats: NetStats,
        attempt: u32,
    ) -> io::Result<SocketTransport> {
        if rank == 0 {
            let rv = match self.kind {
                SocketKind::Tcp => Rendezvous::bind_tcp("127.0.0.1:0")?,
                SocketKind::Unix => {
                    let dir = self.unix_dir.as_ref().expect("unix factory has a dir");
                    Rendezvous::bind_unix(&dir.join(format!("rv{attempt}.sock")))?
                }
            };
            let mut map = self.published.lock().expect("factory poisoned");
            map.insert(attempt, rv.advertised().to_string());
            drop(map);
            self.ready.notify_all();
            rv.lead(world, stats)
        } else {
            let deadline = Instant::now() + CONNECT_BUDGET;
            let mut map = self.published.lock().expect("factory poisoned");
            let advertised = loop {
                if let Some(url) = map.get(&attempt) {
                    break url.clone();
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(io::Error::new(
                        ErrorKind::TimedOut,
                        format!("rank 0 never published a rendezvous for attempt {attempt}"),
                    ));
                }
                let (guard, _) = self
                    .ready
                    .wait_timeout(map, deadline - now)
                    .expect("factory poisoned");
                map = guard;
            };
            drop(map);
            join(&advertised, rank, world, stats)
        }
    }
}

impl Drop for SocketFactory {
    fn drop(&mut self) {
        if let Some(dir) = &self.unix_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;
    use bytes::Bytes;
    use std::thread;

    /// Boots a `world`-sized cluster over in-process threads (each thread
    /// standing in for a worker process) and runs `body` on every rank.
    fn boot_threads<F, R>(world: usize, family: &str, body: F) -> Vec<R>
    where
        F: Fn(SocketTransport) -> R + Send + Sync,
        R: Send,
    {
        static UNIQUE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("gluon-bs-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("socket dir");
        let rv = if family == "tcp" {
            Rendezvous::bind_tcp("127.0.0.1:0").expect("bind rendezvous")
        } else {
            Rendezvous::bind_unix(&dir.join("rv.sock")).expect("bind rendezvous")
        };
        let advertised = rv.advertised().to_string();
        let mut out: Vec<Option<R>> = (0..world).map(|_| None).collect();
        thread::scope(|s| {
            let mut handles = Vec::new();
            let body = &body;
            handles.push(s.spawn({
                let stats = NetStats::new(world);
                move || (0, body(rv.lead(world, stats).expect("lead")))
            }));
            for rank in 1..world {
                let advertised = advertised.clone();
                handles.push(s.spawn({
                    let stats = NetStats::new(world);
                    move || {
                        (
                            rank,
                            body(join(&advertised, rank, world, stats).expect("join")),
                        )
                    }
                }));
            }
            for h in handles {
                let (rank, r) = h.join().expect("worker thread");
                out[rank] = Some(r);
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
        out.into_iter()
            .map(|r| r.expect("every rank ran"))
            .collect()
    }

    fn ring_pass(t: SocketTransport) -> u64 {
        let world = t.world_size();
        let next = (t.rank() + 1) % world;
        let prev = (t.rank() + world - 1) % world;
        let mut total = 0u64;
        for round in 0..5u64 {
            t.try_send(
                next,
                round as u32,
                Bytes::copy_from_slice(&round.to_le_bytes()),
            )
            .expect("send");
            let got = t.try_recv(prev, round as u32).expect("recv");
            total += u64::from_le_bytes(got[..8].try_into().expect("payload"));
        }
        total
    }

    #[test]
    fn tcp_ring_delivers_in_order() {
        let totals = boot_threads(3, "tcp", ring_pass);
        assert_eq!(totals, vec![10, 10, 10]);
    }

    #[test]
    fn unix_ring_delivers_in_order() {
        let totals = boot_threads(3, "unix", ring_pass);
        assert_eq!(totals, vec![10, 10, 10]);
    }

    #[test]
    fn self_send_and_any_recv_work() {
        let got = boot_threads(2, "tcp", |t| {
            t.try_send(t.rank(), 9, Bytes::from_static(b"me"))
                .expect("self send");
            let me = t.try_recv(t.rank(), 9).expect("self recv");
            let peer = 1 - t.rank();
            t.try_send(peer, 4, Bytes::from_static(b"x")).expect("send");
            let env = t.try_recv_any(4).expect("any");
            (me.to_vec(), env.src)
        });
        assert_eq!(got[0], (b"me".to_vec(), 1));
        assert_eq!(got[1], (b"me".to_vec(), 0));
    }

    #[test]
    fn dropped_peer_latches_typed_peer_down() {
        let outcomes = boot_threads(2, "tcp", |t| {
            if t.rank() == 1 {
                // Simulated abrupt death: close both sockets without a word.
                t.note_round(3);
                drop(t);
                return None;
            }
            t.note_round(3);
            let err = t.try_recv(1, 0).expect_err("peer vanished");
            assert_eq!(err, crate::NetError::PeerDown { peer: 1, round: 3 });
            // The latched failure fails any-source receives and sends too.
            assert_eq!(t.try_recv_any(0), Err(err));
            assert_eq!(
                t.try_send(1, 0, Bytes::from_static(b"late"))
                    .expect_err("dead"),
                err
            );
            Some(err)
        });
        assert!(outcomes[0].is_some());
    }

    #[test]
    fn factory_boots_both_families_per_attempt() {
        for kind in [SocketKind::Tcp, SocketKind::Unix] {
            let factory = SocketFactory::new(kind);
            for attempt in 0..2u32 {
                let world = 3;
                let shared = NetStats::new(world);
                let totals: Vec<u64> = thread::scope(|s| {
                    let handles: Vec<_> = (0..world)
                        .map(|rank| {
                            let factory = &factory;
                            let stats = shared.clone();
                            s.spawn(move || {
                                ring_pass(
                                    factory
                                        .endpoint(rank, world, stats, attempt)
                                        .expect("bootstrap"),
                                )
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("rank"))
                        .collect()
                });
                assert_eq!(totals, vec![10, 10, 10], "{kind:?} attempt {attempt}");
            }
        }
    }

    #[test]
    fn counters_match_memory_semantics_and_track_frames() {
        let stats: Vec<_> = boot_threads(2, "tcp", |t| {
            let peer = 1 - t.rank();
            for i in 0..10u32 {
                t.try_send(peer, i, Bytes::copy_from_slice(&[0u8; 100]))
                    .expect("send");
            }
            for i in 0..10u32 {
                let got = t.try_recv(peer, i).expect("recv");
                assert_eq!(got.len(), 100);
            }
            // A send has written its frame by the time it returns, so the
            // wire counters are exact here.
            let s = t.stats();
            (
                s.host_sent(t.rank()),
                s.socket_frames_sent(),
                s.socket_frames_received(),
                s.socket_connects(),
            )
        });
        for (sent, fs, fr, conns) in &stats {
            // Payload accounting is identical to MemoryTransport: 10
            // messages of 100 payload bytes, no framing overhead.
            assert_eq!(*sent, (1000, 10));
            assert_eq!(*fs, 10);
            assert_eq!(*fr, 10);
            assert!(*conns >= 1);
        }
    }
}
