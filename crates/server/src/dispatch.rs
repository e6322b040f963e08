//! The readiness-driven dispatcher: one `poll(2)` event loop feeding
//! the sharded scheduler.
//!
//! One thread owns every connection. It sleeps in `poll(2)` over the
//! listener, all connection sockets, and a self-pipe; it wakes only
//! when bytes arrive, a shard worker finishes a response, or a signal
//! lands (the handler writes the self-pipe — see
//! [`crate::transport::install_signal_handlers`]). There are **no
//! per-connection threads and no read timeouts**: ten thousand idle
//! connections cost zero wakeups.
//!
//! Frames are parsed off each connection's byte stream, assigned a
//! per-connection sequence number, and routed to shard inboxes via
//! [`Sched::submit`]. Workers answer through a completion queue (plus a
//! self-pipe poke); the dispatcher reorders completions back into
//! request order per connection before writing — responses on one
//! connection always come back in the order the requests went in, even
//! when frames fan out to different shards.
//!
//! The `poll(2)`/`pipe(2)` calls go through the same direct `extern
//! "C"` declarations the signal handling already uses (std links libc;
//! the build stays offline with zero new dependencies).

use crate::sched::{Sched, Submitted};
use crate::server::{Reply, Server};
use crate::transport::{install_signal_handlers, register_signal_wake, signal_requested};
use parulel_engine::Json;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn pipe(fds: *mut i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
}

const F_SETFL: i32 = 4;
const O_NONBLOCK: i32 = 0x800;

/// `poll(2)` timeout: block indefinitely. The self-pipe covers every
/// wake source (worker completions, signals), so no periodic wakeup is
/// needed.
const POLL_FOREVER: i32 = -1;

/// Worker→dispatcher completion channel: finished responses plus the
/// self-pipe poke that wakes `poll(2)`.
struct Completions {
    queue: Mutex<Vec<(u64, u64, String)>>,
    wake_fd: i32,
}

impl Completions {
    fn push(&self, conn: u64, seq: u64, response: String) {
        self.queue
            .lock()
            .expect("completion queue poisoned")
            .push((conn, seq, response));
        // A full pipe already guarantees a pending wakeup; EAGAIN is
        // success here.
        let byte = b"w";
        unsafe {
            let _ = write(self.wake_fd, byte.as_ptr(), 1);
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, String),
}

impl Listener {
    fn fd(&self) -> i32 {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> io::Result<Sock> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                let _ = stream.set_nodelay(true);
                stream.set_nonblocking(true)?;
                Ok(Sock::Tcp(stream))
            }
            Listener::Unix(l, _) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(true)?;
                Ok(Sock::Unix(stream))
            }
        }
    }
}

enum Sock {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Sock {
    fn fd(&self) -> i32 {
        match self {
            Sock::Tcp(s) => s.as_raw_fd(),
            Sock::Unix(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            Sock::Unix(s) => s.write(buf),
        }
    }
}

/// A connection's input bytes after its last complete line, and how many
/// of them were already scanned for a `\n`.
#[derive(Default)]
struct LineBuf {
    bytes: Vec<u8>,
    scanned: usize,
}

impl LineBuf {
    /// Appends `chunk` and returns the lines it completes, without their
    /// `\n`. Each byte is scanned once, and the consumed prefix is
    /// dropped once per call, so a long line costs linear time however
    /// many reads it spans.
    fn split(&mut self, chunk: &[u8]) -> Vec<String> {
        self.bytes.extend_from_slice(chunk);
        let mut lines = Vec::new();
        let mut start = 0;
        while let Some(at) = self.bytes[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + at;
            lines.push(String::from_utf8_lossy(&self.bytes[start..end]).into_owned());
            start = end + 1;
            self.scanned = start;
        }
        self.bytes.drain(..start);
        self.scanned = self.bytes.len();
        lines
    }
}

/// One connection's dispatcher-side state.
struct Conn {
    sock: Sock,
    /// Input not yet split into lines.
    rbuf: LineBuf,
    /// Bytes queued for write (response frames, newline-terminated).
    wbuf: Vec<u8>,
    /// Next sequence number assigned to an incoming frame.
    next_seq: u64,
    /// Next sequence number whose response may be written.
    next_flush: u64,
    /// Responses that completed out of order, keyed by sequence.
    pending: BTreeMap<u64, String>,
    /// Read side saw EOF; the connection drops once `wbuf` drains and
    /// no responses are outstanding.
    eof: bool,
}

impl Conn {
    fn new(sock: Sock) -> Conn {
        Conn {
            sock,
            rbuf: LineBuf::default(),
            wbuf: Vec::new(),
            next_seq: 0,
            next_flush: 0,
            pending: BTreeMap::new(),
            eof: false,
        }
    }

    fn outstanding(&self) -> bool {
        self.next_flush < self.next_seq || !self.wbuf.is_empty()
    }

    /// Files a completed response and flushes every consecutively-ready
    /// response into the write buffer (per-connection request order).
    fn complete(&mut self, seq: u64, response: String) {
        self.pending.insert(seq, response);
        while let Some(r) = self.pending.remove(&self.next_flush) {
            self.wbuf.extend_from_slice(r.as_bytes());
            self.wbuf.push(b'\n');
            self.next_flush += 1;
        }
    }

    /// Writes as much of `wbuf` as the socket accepts right now.
    fn flush(&mut self) -> io::Result<()> {
        while !self.wbuf.is_empty() {
            match self.sock.write(&self.wbuf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

fn make_pipe() -> io::Result<(i32, i32)> {
    let mut fds = [0i32; 2];
    if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    for fd in fds {
        unsafe {
            fcntl(fd, F_SETFL, O_NONBLOCK);
        }
    }
    Ok((fds[0], fds[1]))
}

/// Serves `listener` through `sched` until a `shutdown` frame or
/// SIGTERM/SIGINT. The scheduler is consumed: its workers are joined
/// before this returns.
fn event_loop(mut sched: Sched, listener: Listener) -> io::Result<()> {
    install_signal_handlers();
    let (pipe_r, pipe_w) = make_pipe()?;
    register_signal_wake(pipe_w);
    let completions = Arc::new(Completions {
        queue: Mutex::new(Vec::new()),
        wake_fd: pipe_w,
    });
    let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
    let mut next_conn = 0u64;
    let mut down = false;

    while !down {
        let mut fds = vec![
            PollFd {
                fd: pipe_r,
                events: POLLIN,
                revents: 0,
            },
            PollFd {
                fd: listener.fd(),
                events: POLLIN,
                revents: 0,
            },
        ];
        let mut ids = Vec::with_capacity(conns.len());
        for (&id, conn) in &conns {
            let mut events = 0i16;
            if !conn.eof {
                events |= POLLIN;
            }
            if !conn.wbuf.is_empty() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: conn.sock.fd(),
                events,
                revents: 0,
            });
            ids.push(id);
        }
        // EINTR falls through to the same recheck as a wake.
        unsafe {
            poll(fds.as_mut_ptr(), fds.len() as u64, POLL_FOREVER);
        }

        drain_pipe(pipe_r);
        deliver(&completions, &mut conns);

        if signal_requested() {
            // Graceful signal shutdown: drain runs (their responses
            // flush below), persist, stop.
            let merged = sched.shutdown(&Json::obj().set("op", "shutdown"));
            if let Some(persisted) = merged.get("persisted").and_then(Json::as_f64) {
                if persisted > 0.0 {
                    eprintln!(
                        "parulel serve: signal received; persisted {} session(s)",
                        persisted as u64
                    );
                }
            }
            deliver(&completions, &mut conns);
            break;
        }

        // Accept every pending connection (readiness-driven: only when
        // poll reported the listener, but re-checking is harmless and
        // keeps the loop simple after spurious wakes).
        loop {
            match listener.accept() {
                Ok(sock) => {
                    conns.insert(next_conn, Conn::new(sock));
                    next_conn += 1;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::Interrupted =>
                {
                    break
                }
                Err(_) => break,
            }
        }

        // Readable connections: pull bytes, split frames, route.
        let mut dead: Vec<u64> = Vec::new();
        for (slot, &id) in ids.iter().enumerate() {
            let revents = fds[slot + 2].revents;
            if revents == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if revents & (POLLIN | POLLERR | POLLHUP) != 0 && !conn.eof {
                match read_frames(id, conn, &sched, &completions) {
                    ReadOutcome::Open => {}
                    ReadOutcome::Closed => {
                        if !conn.outstanding() {
                            dead.push(id);
                        }
                    }
                    ReadOutcome::Shutdown(reply) => {
                        let merged = sched.shutdown(&Json::obj().set("op", "shutdown"));
                        reply(merged.render());
                        deliver(&completions, &mut conns);
                        down = true;
                        break;
                    }
                }
            }
        }
        if down {
            break;
        }
        for id in dead {
            conns.remove(&id);
        }

        // Deliver anything workers finished while we were reading, then
        // flush writable connections.
        deliver(&completions, &mut conns);
        let mut dropped: Vec<u64> = Vec::new();
        for (&id, conn) in conns.iter_mut() {
            if conn.flush().is_err() {
                dropped.push(id);
                continue;
            }
            if conn.eof && !conn.outstanding() {
                dropped.push(id);
            }
        }
        for id in dropped {
            conns.remove(&id);
        }
    }

    // Shutdown path: workers are already joined by `sched.shutdown`.
    // Best-effort final flush of everything still buffered (the
    // shutdown response itself, drained-run responses on neighbor
    // connections), bounded so a stuck peer cannot wedge the exit.
    deliver(&completions, &mut conns);
    let deadline = Instant::now() + Duration::from_secs(3);
    while Instant::now() < deadline {
        let mut pending = false;
        for conn in conns.values_mut() {
            let _ = conn.flush();
            if !conn.wbuf.is_empty() {
                pending = true;
            }
        }
        if !pending {
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    register_signal_wake(-1);
    unsafe {
        close(pipe_r);
        close(pipe_w);
    }
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

fn drain_pipe(fd: i32) {
    let mut buf = [0u8; 256];
    loop {
        let n = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
        if n <= 0 || (n as usize) < buf.len() {
            break;
        }
    }
}

fn deliver(completions: &Completions, conns: &mut BTreeMap<u64, Conn>) {
    let batch: Vec<(u64, u64, String)> = {
        let mut queue = completions.queue.lock().expect("completion queue poisoned");
        std::mem::take(&mut *queue)
    };
    for (conn_id, seq, response) in batch {
        // Responses for connections that died in flight are dropped.
        if let Some(conn) = conns.get_mut(&conn_id) {
            conn.complete(seq, response);
        }
    }
}

enum ReadOutcome {
    Open,
    Closed,
    Shutdown(Reply),
}

/// Reads whatever the socket has, splits complete lines, and submits
/// each to the scheduler with this connection's next sequence number.
fn read_frames(
    id: u64,
    conn: &mut Conn,
    sched: &Sched,
    completions: &Arc<Completions>,
) -> ReadOutcome {
    let mut buf = [0u8; 4096];
    loop {
        match conn.sock.read(&mut buf) {
            Ok(0) => {
                conn.eof = true;
                return ReadOutcome::Closed;
            }
            Ok(n) => {
                for line in conn.rbuf.split(&buf[..n]) {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    let sink = Arc::clone(completions);
                    let reply: Reply = Box::new(move |response| sink.push(id, seq, response));
                    match sched.submit(&line, reply) {
                        Submitted::Dispatched => {}
                        Submitted::Shutdown(reply) => return ReadOutcome::Shutdown(reply),
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Open,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.eof = true;
                return ReadOutcome::Closed;
            }
        }
    }
}

/// Binds `addr` and serves TCP through the sharded scheduler on a
/// background thread until a `shutdown` frame or SIGTERM/SIGINT.
/// Returns the bound address (resolving port 0) and the dispatcher
/// thread's handle.
pub fn spawn_sched_tcp(
    servers: Vec<Server>,
    quantum: u64,
    inbox_cap: usize,
    addr: &str,
) -> io::Result<(SocketAddr, thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let handle = thread::spawn(move || {
        let sched = Sched::start(servers, quantum, inbox_cap);
        let _ = event_loop(sched, Listener::Tcp(listener));
    });
    Ok((bound, handle))
}

/// Binds a Unix socket at `path` (replacing a stale file) and serves it
/// through the sharded scheduler. Blocks the caller.
pub fn serve_sched_unix(
    servers: Vec<Server>,
    quantum: u64,
    inbox_cap: usize,
    path: &str,
) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let sched = Sched::start(servers, quantum, inbox_cap);
    event_loop(sched, Listener::Unix(listener, path.to_string()))
}

#[cfg(test)]
mod tests {
    use super::LineBuf;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Splits `stream` through a [`LineBuf`] fed `chunk()` bytes at a
    /// time.
    fn split(stream: &[u8], mut chunk: impl FnMut() -> usize) -> Vec<String> {
        let mut buf = LineBuf::default();
        let mut lines = Vec::new();
        let mut rest = stream;
        while !rest.is_empty() {
            let (head, tail) = rest.split_at(chunk().clamp(1, rest.len()));
            lines.extend(buf.split(head));
            rest = tail;
        }
        lines
    }

    #[test]
    fn lines_do_not_depend_on_how_reads_chunk_the_stream() {
        for seed in 0..20 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut stream = Vec::new();
            for _ in 0..rng.gen_range(0..40usize) {
                let len = match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => rng.gen_range(1..16usize),
                    2 => rng.gen_range(16..5000usize),
                    _ => rng.gen_range(5000..20000usize),
                };
                let text: String = (0..len)
                    .map(|_| ['a', ' ', '{', 'é', '"'][rng.gen_range(0..5usize)])
                    .collect();
                stream.extend_from_slice(text.as_bytes());
                stream.push(b'\n');
            }
            // An unterminated tail is never a line.
            stream.extend_from_slice(&b"tail"[..rng.gen_range(0..5usize)]);
            let text = String::from_utf8(stream.clone()).unwrap();
            let mut expected: Vec<String> = text.split('\n').map(str::to_string).collect();
            expected.pop();
            assert_eq!(split(&stream, || 1), expected, "seed {seed}, 1-byte reads");
            assert_eq!(split(&stream, || 4096), expected, "seed {seed}, 4 KiB reads");
            let mut sizes = SmallRng::seed_from_u64(seed ^ 0x5eed);
            let random = split(&stream, || sizes.gen_range(1..9000usize));
            assert_eq!(random, expected, "seed {seed}, random reads");
        }
    }
}
