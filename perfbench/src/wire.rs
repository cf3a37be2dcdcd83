//! The `ged-served` process and the socket load generator.
//!
//! The load comes from this one process: at most two connections, each
//! driven by one thread. [`closed_loop`] sends a connection's next
//! request when the previous answer arrives.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long to wait for the daemon's socket, and for it to exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `ged-served`. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `bin --socket <socket> --threads 2` and waits until the
    /// socket accepts connections.
    pub fn spawn(bin: &Path, socket: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(bin)
            .arg("--socket")
            .arg(socket)
            .args(["--threads", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let start = Instant::now();
        while UnixStream::connect(socket).is_err() {
            if start.elapsed() > PROCESS_TIMEOUT {
                return Err(format!("{} never opened its socket", bin.display()));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(daemon)
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.socket)
            .map_err(|e| format!("connect {}: {e}", self.socket.display()))?;
        Conn::new(stream)
    }

    /// Sends `shutdown` and waits for the process to exit 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = self
            .connect()?
            .call(r#"{"v":1,"id":"bye","op":"shutdown"}"#)?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("shutdown refused: {reply}"));
        }
        let mut child = self.child.take().expect("child present until shutdown");
        let start = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("ged-served exited with {status}")),
                Ok(None) if start.elapsed() < PROCESS_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("ged-served did not exit after shutdown".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One client connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    buf: Vec<u8>,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Conn, String> {
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            buf: Vec::new(),
        })
    }

    /// Writes one request line (the newline is added here).
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one response line.
    pub fn recv(&mut self) -> Result<String, String> {
        match self.reader.read_until(b'\n', &mut self.buf) {
            Ok(0) => Err("connection closed by ged-served".to_string()),
            Ok(_) if self.buf.ends_with(b"\n") => {
                self.buf.pop();
                String::from_utf8(std::mem::take(&mut self.buf))
                    .map_err(|e| format!("non-UTF-8 response: {e}"))
            }
            Ok(_) => Err("ged-served closed the connection mid-line".to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Sends every line without waiting for answers, then reads the
    /// answers, which the daemon gives in the order the requests arrive.
    /// The lines are written from a second thread, so neither side waits
    /// on a full socket buffer.
    pub fn pipeline(&mut self, lines: &[String]) -> Result<Vec<String>, String> {
        let mut writer = self.writer.try_clone().map_err(|e| e.to_string())?;
        let bytes: Vec<u8> = lines
            .iter()
            .flat_map(|l| l.bytes().chain([b'\n']))
            .collect();
        std::thread::scope(|s| {
            let sender =
                s.spawn(move || writer.write_all(&bytes).map_err(|e| format!("send: {e}")));
            let replies: Result<Vec<String>, String> = lines.iter().map(|_| self.recv()).collect();
            sender
                .join()
                .map_err(|_| "sender thread panicked".to_string())??;
            replies
        })
    }

    /// One request, one response.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }
}

/// One answered request of a load run.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index of the request in the script.
    pub index: usize,
    /// From writing the request line to reading the response line.
    pub latency: Duration,
    /// The response line.
    pub response: String,
}

impl Sample {
    /// Latency in ms.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.latency.as_secs_f64() * 1e3
    }
}

/// Closed loop: connection `c` sends the requests `indices` with
/// `i % conns.len() == c`, each as soon as the previous answer arrives,
/// one thread per connection. Returns the samples in script order.
pub fn closed_loop(
    conns: &mut [Conn],
    lines: &[String],
    indices: std::ops::Range<usize>,
) -> Result<Vec<Sample>, String> {
    let n = conns.len();
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let job = indices.clone().filter(move |i| i % n == c);
                s.spawn(move || {
                    let mut out = Vec::with_capacity(job.size_hint().0);
                    for i in job {
                        let sent = Instant::now();
                        conn.send(&lines[i])?;
                        let response = conn.recv()?;
                        out.push(Sample {
                            index: i,
                            latency: sent.elapsed(),
                            response,
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".to_string()))
            })
            .collect()
    });
    let mut samples = Vec::new();
    for r in results {
        samples.extend(r?);
    }
    samples.sort_by_key(|s| s.index);
    Ok(samples)
}
