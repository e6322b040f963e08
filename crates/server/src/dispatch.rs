//! The socket driver of the serve front end: one `poll(2)` loop that
//! moves bytes and jobs for [`Front`].
//!
//! One thread owns every connection. It sleeps in `poll(2)` over the
//! listener, the sockets and a self-pipe. Shard workers push every answer
//! onto one completion queue and poke the pipe; the signal handler pokes
//! it too (see [`crate::transport::install_signal_handlers`]). No
//! per-connection threads and no timeouts: idle connections cost nothing.
//!
//! The loop decides nothing. It accepts, reads and writes without
//! blocking, reports each thing that happened to [`Front::step`] as an
//! [`Event`], and carries out the [`Effect`]s that come back. So a
//! broadcast never waits on a shard: the dispatcher thread blocks only in
//! `poll(2)` and, once stopped, in joining the shard workers. `poll`,
//! `pipe` and friends are direct `extern "C"` declarations (std links
//! libc; no new dependencies).

use crate::front::{Effect, Event, Front, Tag};
use crate::sched::{Job, Sched};
use crate::server::{Reply, Server};
use crate::transport::{install_signal_handlers, register_signal_wake, signal_requested};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixListener;
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

/// `poll(2)` timeout: block until the self-pipe or a socket is ready.
const POLL_FOREVER: i32 = -1;

/// Sleeps in `poll(2)` until one of `fds` is ready or `timeout_ms`
/// passes. EINTR returns early, like a wake.
fn wait(fds: &mut [PollFd], timeout_ms: i32) {
    unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
}

fn poll_fd(fd: i32, events: i16) -> PollFd {
    PollFd {
        fd,
        events,
        revents: 0,
    }
}

/// Worker→dispatcher completion queue: every job's answer.
type Answers = Arc<Mutex<Vec<(Tag, String)>>>;

/// The reply of the job tagged `tag`: file the answer, then poke the
/// self-pipe so `poll(2)` wakes (a full pipe already has a wake pending).
fn reply(answers: &Answers, wake_fd: i32, tag: Tag) -> Reply {
    let answers = Arc::clone(answers);
    Box::new(move |answer| {
        answers.lock().expect("answers").push((tag, answer));
        unsafe { write(wake_fd, b"w".as_ptr(), 1) };
    })
}

/// A connected socket, TCP or Unix.
trait Stream: Read + Write + AsRawFd + Send {}

impl<T: Read + Write + AsRawFd + Send> Stream for T {}

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

    fn accept(&self) -> io::Result<Box<dyn Stream>> {
        Ok(match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                let _ = stream.set_nodelay(true);
                stream.set_nonblocking(true)?;
                Box::new(stream)
            }
            Listener::Unix(l, _) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(true)?;
                Box::new(stream)
            }
        })
    }
}

fn make_pipe() -> io::Result<(i32, i32)> {
    let mut fds = [0i32; 2];
    if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    for fd in fds {
        unsafe { fcntl(fd, F_SETFL, O_NONBLOCK) };
    }
    Ok((fds[0], fds[1]))
}

fn drain_pipe(fd: i32) {
    let mut buf = [0u8; 256];
    while unsafe { read(fd, buf.as_mut_ptr(), buf.len()) } == buf.len() as isize {}
}

/// The loop's state: the front end, the shards, and the sockets.
struct Driver {
    front: Front,
    sched: Sched,
    socks: BTreeMap<u64, Box<dyn Stream>>,
    answers: Answers,
    wake_fd: i32,
    stopped: bool,
}

impl Driver {
    /// Hands `event` to the front end and carries out its effects.
    fn step(&mut self, event: Event<'_>) {
        for effect in self.front.step(event) {
            match effect {
                Effect::Enqueue(tag, work) => {
                    let reply = reply(&self.answers, self.wake_fd, tag);
                    if let Err((job, gone)) = self.sched.try_send(tag.shard, Job { work, reply }) {
                        self.step(Event::Refused(tag, job.work, gone));
                    }
                }
                Effect::Close(conn) => {
                    self.socks.remove(&conn);
                }
                Effect::Stop(note) => {
                    if let Some(note) = note {
                        eprintln!("parulel serve: {note}");
                    }
                    self.stopped = true;
                }
            }
        }
    }

    /// Reads whatever the connection has. Each line goes to the front
    /// end on its own, so its job is on the inbox before the next line is
    /// parsed and a pipelined burst reaches a shard at the pace it drains.
    fn read(&mut self, conn: u64) {
        let mut buf = [0u8; 4096];
        while let Some(sock) = self.socks.get_mut(&conn) {
            match sock.read(&mut buf) {
                Ok(0) => return self.step(Event::Eof(conn)),
                Ok(n) => {
                    for piece in buf[..n].split_inclusive(|&b| b == b'\n') {
                        self.step(Event::Read(conn, piece));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.step(Event::Reset(conn)),
            }
        }
    }

    /// Writes as much of the connection's output as its socket takes.
    fn flush(&mut self, conn: u64) {
        while let Some(sock) = self.socks.get_mut(&conn) {
            let out = self.front.output(conn);
            if out.is_empty() {
                return;
            }
            match sock.write(out) {
                Ok(0) => return self.step(Event::Reset(conn)),
                Ok(n) => self.step(Event::Wrote(conn, n)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.step(Event::Reset(conn)),
            }
        }
    }

    /// Connections with output not yet written.
    fn unflushed(&self) -> Vec<u64> {
        let ids = self.socks.keys().copied();
        ids.filter(|&id| !self.front.output(id).is_empty())
            .collect()
    }
}

/// Serves `listener` through `sched` until a `shutdown` frame or
/// SIGTERM/SIGINT. The scheduler is consumed: its workers are joined
/// before this returns.
fn event_loop(sched: Sched, listener: Listener) -> io::Result<()> {
    install_signal_handlers();
    let (pipe_r, pipe_w) = make_pipe()?;
    register_signal_wake(pipe_w);
    let mut driver = Driver {
        front: Front::new(sched.workers()),
        sched,
        socks: BTreeMap::new(),
        answers: Answers::default(),
        wake_fd: pipe_w,
        stopped: false,
    };
    let mut next_conn = 0u64;
    while !driver.stopped {
        let mut fds = vec![poll_fd(pipe_r, POLLIN), poll_fd(listener.fd(), POLLIN)];
        let ids: Vec<u64> = driver.socks.keys().copied().collect();
        for (&id, sock) in &driver.socks {
            let out = !driver.front.output(id).is_empty();
            let events = if out { POLLOUT } else { 0 };
            let read = driver.front.reading(id);
            let events = if read { events | POLLIN } else { events };
            fds.push(poll_fd(sock.as_raw_fd(), events));
        }
        wait(&mut fds, POLL_FOREVER);
        drain_pipe(pipe_r);
        if signal_requested() {
            driver.step(Event::Shutdown);
        }
        while let Ok(sock) = listener.accept() {
            driver.socks.insert(next_conn, sock);
            driver.step(Event::Accepted(next_conn));
            next_conn += 1;
        }
        for (slot, &id) in ids.iter().enumerate() {
            if fds[slot + 2].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                driver.read(id);
            }
        }
        // After the reads, so an answer that came back meanwhile is
        // written in this turn.
        let answers = std::mem::take(&mut *driver.answers.lock().expect("answers"));
        for (tag, answer) in answers {
            driver.step(Event::Answered(tag, answer));
        }
        for id in driver.unflushed() {
            driver.flush(id);
        }
    }

    // Every shard has answered its shutdown job. Best-effort final flush
    // of what is still buffered (the shutdown answer itself, drained
    // runs' answers on neighbor connections), bounded so a stuck peer
    // cannot wedge the exit.
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let ids = driver.unflushed();
        let left = deadline.saturating_duration_since(Instant::now());
        if ids.is_empty() || left.is_zero() {
            break;
        }
        let mut fds: Vec<PollFd> = ids
            .iter()
            .map(|id| poll_fd(driver.socks[id].as_raw_fd(), POLLOUT))
            .collect();
        wait(&mut fds, left.as_millis().clamp(1, 3000) as i32);
        for id in ids {
            driver.flush(id);
        }
    }
    driver.sched.join();
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
