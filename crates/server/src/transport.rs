//! The stdio line pump, plus the SIGTERM/SIGINT plumbing the socket
//! dispatcher ([`crate::dispatch`]) imports.
//!
//! The pump is the protocol at its plainest — read a line, hand it to
//! [`Server::handle_line`], write the one-line response — over a single
//! [`Server`] the caller owns outright. Sockets are served by the
//! sharded scheduler's `poll(2)` dispatcher instead; both paths end in
//! the same synchronous core, so the protocol behaves identically
//! everywhere.
//!
//! ## Graceful shutdown
//!
//! The dispatcher installs SIGTERM/SIGINT handlers that set an atomic
//! flag and poke its self-pipe, so a sleeping `poll(2)` wakes at once.
//! On a signal every live session's WAL is compacted to a snapshot
//! record and fsynced before the process exits, so a politely-killed
//! daemon recovers exactly like a `kill -9`'d one, just without replay.
//! The stdio pump does *not* install handlers: its natural shutdown is
//! EOF, and Ctrl-C should keep killing an interactive pipe immediately.

use crate::server::Server;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

/// Set by the SIGTERM/SIGINT handler; polled by the dispatcher.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// A pipe write-end the signal handler pokes so a `poll(2)`-based
/// dispatcher wakes immediately instead of waiting out its timeout.
/// `-1` when no dispatcher is running.
static SIGNAL_WAKE_FD: AtomicI32 = AtomicI32::new(-1);

/// True once SIGTERM or SIGINT has been received (only ever true after
/// [`install_signal_handlers`] ran).
pub fn signal_requested() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
}

/// Registers `fd` (a self-pipe write end) to be poked on
/// SIGTERM/SIGINT. Pass `-1` to deregister (before closing the pipe).
pub(crate) fn register_signal_wake(fd: i32) {
    SIGNAL_WAKE_FD.store(fd, Ordering::SeqCst);
}

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: an atomic store and (when a dispatcher is
    // registered) one write(2) — both on the POSIX safe list.
    SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
    let fd = SIGNAL_WAKE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        extern "C" {
            fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        }
        let byte = b"S";
        unsafe {
            let _ = write(fd, byte.as_ptr(), 1);
        }
    }
}

/// Installs flag-setting handlers for SIGTERM and SIGINT. Uses libc's
/// `signal(2)` directly — std already links it, and glibc's `signal`
/// gives BSD semantics (the handler stays installed). Idempotent.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Pumps one line-delimited stream through `server` until EOF or a
/// `shutdown` frame.
pub fn serve_lines<R: BufRead, W: Write>(
    server: &mut Server,
    mut input: R,
    output: &mut W,
) -> io::Result<()> {
    let mut line = String::new();
    while input.read_line(&mut line)? != 0 {
        if let Some(response) = server.handle_line(&line) {
            output.write_all(response.as_bytes())?;
            output.write_all(b"\n")?;
            output.flush()?;
        }
        line.clear();
        if server.shutting_down() {
            break;
        }
    }
    Ok(())
}

/// Serves the process's stdin/stdout through a prebuilt (possibly
/// recovered) server until EOF or a `shutdown` frame.
pub fn serve_stdio(mut server: Server) -> io::Result<()> {
    serve_lines(&mut server, io::stdin().lock(), &mut io::stdout())
}
