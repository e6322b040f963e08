//! The daemon under test and the closed-loop clients that drive it.
//!
//! Every serve workload talks to a freshly spawned
//! `parulel serve --tcp 127.0.0.1:0` child over TCP. A client sends one
//! frame and waits for its reply before sending the next (closed loop).

use crate::json;
use crate::report::Tally;
use crate::stats::Op;
use crate::trace::Recorder;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A spawned daemon. Dropping it kills the process and waits for it, so
/// no run leaves a daemon behind, whichever way it ends.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// Kept open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns `bin serve --tcp 127.0.0.1:0 <flags>` and reads the bound
    /// address from its `listening on tcp …` line. With `--wal-dir` the
    /// daemon prints that line only after recovery has finished.
    pub fn spawn(bin: &Path, flags: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let addr = stdout
            .read_line(&mut banner)
            .ok()
            .and_then(|_| banner.trim().strip_prefix("listening on tcp "))
            .and_then(|addr| addr.parse().ok());
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                addr,
                _stdout: stdout,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not announce its address: {banner:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL, then reap: the crash serve-durable recovers from.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One TCP connection speaking the line protocol.
pub struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    line: String,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A daemon that stops answering fails the run instead of
        // hanging it past the driver's time limit.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Wire {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
            line: String::new(),
        })
    }

    /// One round trip: the frame and its newline leave in one write.
    pub fn call(&mut self, frame: &str) -> std::io::Result<&str> {
        self.out.clear();
        self.out.extend_from_slice(frame.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    /// The last response received.
    pub fn last(&self) -> &str {
        self.line.trim_end()
    }
}

/// A closed-loop client: a connection plus what it measured.
pub struct Client {
    pub wire: Wire,
    pub tally: Tally,
    /// Every recorded frame in the order it was sent: send and reply
    /// times on this client's clock, one unit of work each.
    pub ops: Vec<Op>,
    /// The origin of this client's operation times. Clients whose
    /// operations are compared in time share one.
    pub clock: Instant,
    pub req_bytes: u64,
    pub resp_bytes: u64,
    pub rec: Recorder,
    /// While false, frames are sent and checked but not recorded
    /// (warm-up and verification frames).
    pub recording: bool,
}

impl Client {
    pub fn connect(addr: SocketAddr, rec: Recorder) -> Result<Client, String> {
        Ok(Client {
            wire: Wire::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?,
            tally: Tally::default(),
            ops: Vec::new(),
            clock: Instant::now(),
            req_bytes: 0,
            resp_bytes: 0,
            rec,
            recording: true,
        })
    }

    /// Sends one frame and waits for the reply. Returns whether the
    /// reply was `ok:true`; anything else — a refusal, a protocol error,
    /// a dead connection — counts as a failed operation.
    pub fn frame(&mut self, span: &'static str, op_id: u64, line: &str) -> bool {
        let Client { wire, rec, .. } = self;
        let start_s = self.clock.elapsed().as_secs_f64();
        let result = rec.span(span, op_id, |_| {
            wire.call(line).map(|r| (json::response_ok(r), r.len()))
        });
        let end_s = self.clock.elapsed().as_secs_f64();
        match result {
            Ok((true, resp_len)) => {
                if self.recording {
                    self.tally.ok();
                    self.ops.push(Op {
                        start_s,
                        end_s,
                        units: 1.0,
                    });
                    self.req_bytes += line.len() as u64 + 1;
                    self.resp_bytes += resp_len as u64 + 1;
                }
                true
            }
            Ok((false, _)) => {
                let reply: String = self.wire.last().chars().take(160).collect();
                self.tally.fail(format!("{span} refused: {reply}"));
                false
            }
            Err(e) => {
                self.tally.fail(format!("{span}: {e}"));
                false
            }
        }
    }

    /// Round-trip time of every recorded frame, in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().map(Op::ms).collect()
    }
}

/// Spawn → first `ping` answered `ok`: what a client waits through when
/// the daemon (re)starts. Returns the daemon and that time.
pub fn boot(bin: &Path, flags: &[String]) -> Result<(Daemon, Duration), String> {
    let started = Instant::now();
    let daemon = Daemon::spawn(bin, flags)?;
    let mut wire = Wire::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let reply = wire
        .call(crate::gen::PING)
        .map_err(|e| format!("ping: {e}"))?;
    if !json::response_ok(reply) {
        return Err(format!("ping refused: {reply}"));
    }
    Ok((daemon, started.elapsed()))
}
