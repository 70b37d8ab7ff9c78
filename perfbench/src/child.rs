//! Spawning one `satwatch` invocation and measuring it from outside:
//! spawn-to-exit wall time, and user + sys CPU and peak RSS from the
//! child's own `wait4` rusage (the standard library exposes neither).
//!
//! Linux starts a spawned child's `ru_maxrss` at its parent's peak RSS,
//! and the harness holds whole reference datasets in memory. So children
//! are spawned by a [`Spawner`]: a copy of the harness started before it
//! allocates anything, which spawns on request and reports the usage.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What one finished (or killed) child cost.
#[derive(Clone, Debug, Default)]
pub struct Usage {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub max_rss_mb: f64,
    /// Exit code, or `None` when the child died of a signal.
    pub code: Option<i32>,
    pub timed_out: bool,
}

impl Usage {
    pub fn ok(&self) -> bool {
        self.code == Some(0) && !self.timed_out
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

const P_PID: u32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const SIGKILL: i32 = 9;

extern "C" {
    fn waitid(idtype: u32, id: u32, infop: *mut u64, options: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Retry a wait call that a signal interrupted.
fn retry(mut f: impl FnMut() -> i32) -> io::Result<i32> {
    loop {
        let r = f();
        if r != -1 {
            return Ok(r);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Run `cmd` in `dir` with stdout and stderr sent to the given files,
/// kill it after `timeout`, and reap it with its resource usage.
///
/// The child is first waited for without being reaped (`WNOWAIT`), so
/// its pid stays reserved while the watchdog is stopped; the watchdog
/// therefore can never signal a recycled pid.
pub fn run(cmd: &mut Command, dir: &Path, stdout: &Path, stderr: &Path, timeout: Duration) -> io::Result<Usage> {
    cmd.current_dir(dir).stdin(Stdio::null()).stdout(File::create(stdout)?).stderr(File::create(stderr)?);
    let t0 = Instant::now();
    let child = cmd.spawn()?;
    let pid = child.id();
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if stop_rx.recv_timeout(timeout) == Err(mpsc::RecvTimeoutError::Timeout) {
            // SAFETY: `pid` is our unreaped child (the main thread reaps
            // only after joining this thread), so it names no other process.
            unsafe { kill(pid as i32, SIGKILL) };
            return true;
        }
        false
    });
    // siginfo_t is 128 bytes; its contents are not needed.
    let mut info = [0u64; 16];
    // SAFETY: `info` is a writable buffer the size of siginfo_t and the
    // call only waits on our own child.
    let waited = retry(|| unsafe { waitid(P_PID, pid, info.as_mut_ptr(), WEXITED | WNOWAIT) });
    let wall_s = t0.elapsed().as_secs_f64();
    let _ = stop_tx.send(());
    let timed_out = watchdog.join().expect("watchdog thread does not panic");
    waited?;
    let mut status = 0i32;
    let mut ru =
        Rusage { utime: Timeval { sec: 0, usec: 0 }, stime: Timeval { sec: 0, usec: 0 }, maxrss_kb: 0, rest: [0; 13] };
    // SAFETY: `status` and `ru` are valid for writes of their C types.
    retry(|| unsafe { wait4(pid as i32, &mut status, 0, &mut ru) })?;
    drop(child);
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    let exited = status & 0x7f == 0;
    Ok(Usage {
        wall_s,
        cpu_s: tv(&ru.utime) + tv(&ru.stime),
        max_rss_mb: ru.maxrss_kb as f64 / 1024.0,
        code: exited.then_some((status >> 8) & 0xff),
        timed_out,
    })
}

/// A small helper process that spawns children on request, so their
/// peak RSS is their own. Requests and replies are tab-separated lines.
pub struct Spawner {
    proc: Child,
    requests: ChildStdin,
    replies: BufReader<ChildStdout>,
}

impl Spawner {
    /// Start `exe --spawner`. Call this before allocating much.
    pub fn start(exe: &Path) -> io::Result<Spawner> {
        let mut proc = Command::new(exe).arg("--spawner").stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
        let requests = proc.stdin.take().expect("stdin is piped");
        let replies = BufReader::new(proc.stdout.take().expect("stdout is piped"));
        Ok(Spawner { proc, requests, replies })
    }

    /// [`run`] `program args` in the spawner process.
    pub fn run(
        &mut self,
        program: &Path,
        args: &[String],
        dir: &Path,
        stdout: &Path,
        stderr: &Path,
        timeout: Duration,
    ) -> io::Result<Usage> {
        let mut fields = vec![timeout.as_millis().to_string()];
        fields.extend([dir, stdout, stderr, program].iter().map(|p| p.display().to_string()));
        fields.extend(args.iter().cloned());
        if fields.iter().any(|f| f.contains(['\t', '\n'])) {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "tab or newline in a spawn request"));
        }
        writeln!(self.requests, "{}", fields.join("\t"))?;
        self.requests.flush()?;
        let mut line = String::new();
        self.replies.read_line(&mut line)?;
        parse_reply(&line)
    }

    /// Close the request pipe and wait for the spawner to exit.
    pub fn stop(self) -> io::Result<()> {
        let Spawner { mut proc, requests, replies } = self;
        drop(requests);
        drop(replies);
        proc.wait().map(drop)
    }
}

/// The spawner's loop: one request line in, one reply line out, until
/// the request stream ends.
pub fn serve(requests: impl BufRead, mut replies: impl Write) -> io::Result<()> {
    for line in requests.lines() {
        let line = line?;
        let f: Vec<&str> = line.split('\t').collect();
        let reply = match f.as_slice() {
            [ms, dir, out, err, program, args @ ..] => {
                ms.parse::<u64>().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e)).and_then(|ms| {
                    let mut cmd = Command::new(program);
                    cmd.args(args);
                    run(&mut cmd, Path::new(dir), Path::new(out), Path::new(err), Duration::from_millis(ms))
                })
            }
            _ => Err(io::Error::new(io::ErrorKind::InvalidInput, "short spawn request")),
        };
        match reply {
            Ok(u) => writeln!(
                replies,
                "ok\t{}\t{}\t{}\t{}\t{}",
                u.wall_s,
                u.cpu_s,
                u.max_rss_mb,
                u.code.map_or("signal".to_string(), |c| c.to_string()),
                u.timed_out
            )?,
            Err(e) => writeln!(replies, "err\t{}", e.to_string().replace(['\t', '\n'], " "))?,
        }
        replies.flush()?;
    }
    Ok(())
}

fn parse_reply(line: &str) -> io::Result<Usage> {
    let bad = || io::Error::new(io::ErrorKind::InvalidData, format!("bad spawner reply {line:?}"));
    let f: Vec<&str> = line.trim_end_matches('\n').split('\t').collect();
    match f.as_slice() {
        ["ok", wall, cpu, rss, code, timed_out] => Ok(Usage {
            wall_s: wall.parse().map_err(|_| bad())?,
            cpu_s: cpu.parse().map_err(|_| bad())?,
            max_rss_mb: rss.parse().map_err(|_| bad())?,
            code: code.parse().ok(),
            timed_out: timed_out.parse().map_err(|_| bad())?,
        }),
        ["err", msg] => Err(io::Error::other(msg.to_string())),
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, timeout: Duration) -> Usage {
        let dir = std::env::temp_dir();
        let out = dir.join(format!("perfbench-child-{}-{}.out", std::process::id(), script.len()));
        let mut cmd = Command::new("sh");
        cmd.args(["-c", script]);
        let u = run(&mut cmd, &dir, &out, &out, timeout).unwrap();
        let _ = std::fs::remove_file(&out);
        u
    }

    #[test]
    fn exit_codes_and_timeouts_are_reported() {
        let ok = sh("exit 0", Duration::from_secs(10));
        assert!(ok.ok());
        let bad = sh("exit 3", Duration::from_secs(10));
        assert_eq!(bad.code, Some(3));
        assert!(!bad.ok());
        let slow = sh("sleep 5", Duration::from_millis(100));
        assert!(slow.timed_out && !slow.ok());
        assert!(slow.wall_s < 4.0);
    }

    #[test]
    fn spawner_protocol_round_trips() {
        let dir = std::env::temp_dir();
        let out = dir.join(format!("perfbench-spawn-{}.out", std::process::id()));
        let req = format!("10000\t{}\t{}\t{}\tsh\t-c\techo hi; exit 4\n", dir.display(), out.display(), out.display());
        let mut reply = Vec::new();
        serve(req.as_bytes(), &mut reply).unwrap();
        let u = parse_reply(std::str::from_utf8(&reply).unwrap()).unwrap();
        assert_eq!(u.code, Some(4));
        assert!(!u.timed_out && u.wall_s > 0.0);
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "hi\n");
        let _ = std::fs::remove_file(&out);
        let mut reply = Vec::new();
        serve(&b"x\n"[..], &mut reply).unwrap();
        assert!(parse_reply(std::str::from_utf8(&reply).unwrap()).is_err());
    }

    #[test]
    fn cpu_time_and_rss_come_from_the_child() {
        let busy = sh("i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done", Duration::from_secs(60));
        assert!(busy.ok());
        assert!(busy.cpu_s > 0.0 && busy.cpu_s <= busy.wall_s * 1.5, "{busy:?}");
        assert!(busy.max_rss_mb > 0.0);
    }
}
