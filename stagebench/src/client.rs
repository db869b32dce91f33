//! The load generator: an open loop on a fixed schedule, a closed loop
//! with one request in flight per connection, and a one-at-a-time loop
//! for the traced run. One thread per connection, all in this process.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::mix::Request;

/// How long a client waits for outstanding responses once everything
/// has been sent; well past the server's own 10 s request timeout.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// One request's fate.
#[derive(Clone, Debug)]
pub struct Exchange {
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When the frame was handed to the socket.
    pub sent: Option<Instant>,
    /// When its response line was complete.
    pub done: Option<Instant>,
    /// The response line; `None` if the connection closed or the client
    /// gave up first.
    pub response: Option<String>,
}

impl Exchange {
    fn new(due: Instant) -> Exchange {
        Exchange {
            due,
            sent: None,
            done: None,
            response: None,
        }
    }

    /// Response time from the due time, if answered.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_duration_since(self.due))
    }
}

/// Sends `frames[i]` at `start + i / rate` over `conns` connections
/// (request `i` on connection `i % conns`), never waiting for a
/// response before sending the next frame. Returns one exchange per
/// frame, in frame order.
pub fn open_loop(
    path: &Path,
    frames: &[String],
    rate: f64,
    conns: usize,
    start: Instant,
) -> io::Result<Vec<Exchange>> {
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut per_conn: Vec<Vec<usize>> = vec![Vec::new(); conns];
    for i in 0..frames.len() {
        per_conn[i % conns].push(i);
    }
    let results: Vec<io::Result<Vec<(usize, Exchange)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|mine| {
                scope.spawn(move || {
                    let stream = UnixStream::connect(path)?;
                    drive_open(stream, mine, frames, due)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client thread panicked"))
            .collect()
    });
    let mut all: Vec<Option<Exchange>> = vec![None; frames.len()];
    for part in results {
        for (i, ex) in part? {
            all[i] = Some(ex);
        }
    }
    Ok(all
        .into_iter()
        .map(|ex| ex.expect("every frame belongs to a connection"))
        .collect())
}

fn drive_open(
    mut stream: UnixStream,
    mine: &[usize],
    frames: &[String],
    due: impl Fn(usize) -> Instant,
) -> io::Result<Vec<(usize, Exchange)>> {
    stream.set_nonblocking(true)?;
    let mut ex: Vec<(usize, Exchange)> = mine.iter().map(|&i| (i, Exchange::new(due(i)))).collect();
    let mut out: Vec<u8> = Vec::new();
    let mut out_pos = 0;
    let mut inbuf: Vec<u8> = Vec::new();
    let mut scanned = 0;
    let mut chunk = vec![0u8; 1 << 16];
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut next = 0;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let now = Instant::now();
        while next < ex.len() && ex[next].1.due <= now {
            out.extend_from_slice(frames[ex[next].0].as_bytes());
            out.push(b'\n');
            ex[next].1.sent = Some(now);
            pending.push_back(next);
            next += 1;
        }
        if out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break, // the server closed the connection early
            }
            if out_pos == out.len() {
                out.clear();
                out_pos = 0;
            }
        }
        let mut closed = false;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        let arrived = Instant::now();
        while let Some(pos) = inbuf[scanned..].iter().position(|&b| b == b'\n') {
            let end = scanned + pos;
            let line = String::from_utf8_lossy(&inbuf[..end]).into_owned();
            inbuf.drain(..=end);
            scanned = 0;
            let Some(slot) = pending.pop_front() else {
                // An unsolicited frame (e.g. a shutdown reason): stop.
                closed = true;
                break;
            };
            ex[slot].1.done = Some(arrived);
            ex[slot].1.response = Some(line);
        }
        scanned = inbuf.len();
        if closed || (next == ex.len() && pending.is_empty() && out.is_empty()) {
            break;
        }
        let wait = if next < ex.len() {
            ex[next].1.due.saturating_duration_since(Instant::now())
        } else {
            let limit = *drain_deadline.get_or_insert(Instant::now() + DRAIN_LIMIT);
            if Instant::now() >= limit {
                break;
            }
            Duration::from_millis(100)
        };
        wait_ready(&stream, out_pos < out.len(), wait);
    }
    Ok(ex)
}

/// Blocks until the socket is readable (or writable, when `write`), or
/// `timeout` passes. `ppoll` rather than a read timeout: socket
/// timeouts tick in scheduler jiffies, which would add milliseconds of
/// error to an open-loop schedule.
fn wait_ready(stream: &UnixStream, write: bool, timeout: Duration) {
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
    const POLLIN: c_short = 0x1;
    const POLLOUT: c_short = 0x4;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: if write { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: c_long::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out `struct pollfd`
    // and `struct timespec` values for the duration of the call, `nfds`
    // is 1 to match the single descriptor, and a null signal mask asks
    // ppoll to leave the mask unchanged. The descriptor stays open
    // because `stream` is borrowed across the call. Errors (EINTR) only
    // end the wait early, which the caller's loop tolerates.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// A closed loop: `conns` connections, each sending its next request
/// only after the previous response, `per_conn` requests each.
/// `make(conn, k)` builds the `k`-th request of a connection; it runs
/// while the previous request is in flight, so generation overlaps the
/// server's work. Returns the requests with their exchanges.
pub fn closed_loop<F>(
    path: &Path,
    conns: usize,
    per_conn: usize,
    make: F,
) -> io::Result<Vec<(Request, Exchange)>>
where
    F: Fn(usize, usize) -> Request + Sync,
{
    let make = &make;
    let parts: Vec<io::Result<Vec<(Request, Exchange)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let stream = UnixStream::connect(path)?;
                    let mut reader = BufReader::new(stream.try_clone()?);
                    let mut writer = stream;
                    let mut done = Vec::new();
                    let mut next = make(c, 0);
                    for k in 1..=per_conn {
                        let req = next;
                        let mut frame = req.frame();
                        frame.push('\n');
                        let mut ex = Exchange::new(Instant::now());
                        ex.sent = Some(ex.due);
                        let sent = writer.write_all(frame.as_bytes());
                        drop(frame);
                        next = make(c, k);
                        let mut line = String::new();
                        if sent.is_ok() && matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                            ex.done = Some(Instant::now());
                            line.pop();
                            ex.response = Some(line);
                        }
                        let answered = ex.response.is_some();
                        done.push((req, ex));
                        if !answered {
                            break; // closed early; counted by the caller
                        }
                    }
                    Ok(done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for part in parts {
        all.extend(part?);
    }
    Ok(all)
}

/// Sends each frame alone on one connection and waits for its response
/// before the next: the traced run's view of an unloaded server.
/// `after` runs between requests (outside any timed interval).
pub fn one_at_a_time(
    path: &Path,
    reqs: &[Request],
    mut after: impl FnMut(usize, &Exchange),
) -> io::Result<Vec<Exchange>> {
    let stream = UnixStream::connect(path)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut out = Vec::with_capacity(reqs.len());
    for (i, req) in reqs.iter().enumerate() {
        let mut frame = req.frame();
        frame.push('\n');
        let mut ex = Exchange::new(Instant::now());
        ex.sent = Some(ex.due);
        writer.write_all(frame.as_bytes())?;
        let mut line = String::new();
        if reader.read_line(&mut line)? > 0 {
            ex.done = Some(Instant::now());
            line.pop();
            ex.response = Some(line);
        }
        after(i, &ex);
        out.push(ex);
    }
    Ok(out)
}
