//! Child processes as the harness runs them: stdout captured line by line
//! with arrival times, stderr kept in a file, and the exit collected with
//! `wait4` so the child's own CPU time and peak RSS come from the kernel.

use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the harness reads rusage through wait4 with the 64-bit Linux struct layout");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs, of
/// which only `ru_maxrss` (the first) is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

const WNOHANG: i32 = 1;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exited by itself with status 0 before the deadline.
    pub ok: bool,
    /// User + system CPU time, seconds.
    pub cpu_s: f64,
    /// Peak resident set, MB (10^6 bytes). Never below the peak RSS this
    /// process had when it spawned the child: the kernel carries the old
    /// address space's high-water mark across `exec`. Keep the harness small.
    pub max_rss_mb: f64,
    /// When the harness saw the exit.
    pub at: Instant,
}

/// One stdout line and when it arrived.
pub type StampedLine = (Instant, String);

/// A running child. Dropped without [`Proc::wait`], it is killed and
/// reaped, so an error path never leaves a process behind.
pub struct Proc {
    child: Child,
    reaped: bool,
    stdout: Option<JoinHandle<Vec<StampedLine>>>,
    /// Where the child's stderr goes.
    stderr_path: PathBuf,
}

impl Proc {
    /// Spawns `bin args…` with stdin closed and stderr redirected to
    /// `stderr_path`. With `capture`, a reader thread stamps each stdout
    /// line as it arrives; without, stdout is discarded.
    pub fn spawn(bin: &Path, args: &[&str], stderr_path: &Path, capture: bool) -> io::Result<Proc> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(if capture {
                Stdio::piped()
            } else {
                Stdio::null()
            })
            .stderr(File::create(stderr_path)?)
            .spawn()?;
        let stdout = child.stdout.take().map(|pipe| {
            std::thread::spawn(move || {
                BufReader::new(pipe)
                    .lines()
                    .map_while(Result::ok)
                    .map(|l| (Instant::now(), l))
                    .collect()
            })
        });
        Ok(Proc {
            child,
            reaped: false,
            stdout,
            stderr_path: stderr_path.to_path_buf(),
        })
    }

    /// Waits for the child, killing it at `deadline`. Returns its exit and
    /// the captured stdout lines (empty without `capture`).
    pub fn wait(mut self, deadline: Instant) -> (Exit, Vec<StampedLine>) {
        let pid = self.child.id() as i32;
        let mut status = 0i32;
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss_kb: 0,
            rest: [0; 13],
        };
        let mut killed = false;
        let reaped = loop {
            let flags = if killed { 0 } else { WNOHANG };
            // SAFETY: `pid` is this process's own child, not yet reaped
            // (std never waits on it: `self.child` is only ever killed);
            // `status` and `ru` are live, writable and of the layout wait4
            // fills on 64-bit Linux, which the compile_error above pins.
            let r = unsafe { wait4(pid, &mut status, flags, &mut ru) };
            if r != 0 {
                break r == pid;
            }
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                killed = true;
            } else {
                std::thread::sleep(Duration::from_micros(250));
            }
        };
        let at = Instant::now();
        self.reaped = true;
        let lines = self
            .stdout
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        let exit = Exit {
            ok: reaped && !killed && status == 0,
            cpu_s: secs(&ru.utime) + secs(&ru.stime),
            max_rss_mb: ru.maxrss_kb as f64 * 1024.0 / 1e6,
            at,
        };
        (exit, lines)
    }

    /// Polls the stderr file until a line containing `marker` appears and
    /// returns the rest of that line, or `None` at `deadline` or when the
    /// child has gone.
    pub fn await_stderr(&mut self, marker: &str, deadline: Instant) -> Option<String> {
        loop {
            // Sampled before the read, so a child that prints and exits at
            // once is still read to the end.
            let gone = self.exited();
            let text = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
            let hit = text.lines().find_map(|l| {
                l.split_once(marker)
                    .map(|(_, rest)| rest.trim().to_string())
            });
            if hit.is_some() || gone || Instant::now() >= deadline {
                return hit;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Whether the child is already a zombie or gone, without reaping it
    /// (`wait` must still collect its rusage).
    fn exited(&self) -> bool {
        match std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())) {
            // The state letter follows the parenthesised command name.
            Ok(stat) => stat
                .rsplit_once(") ")
                .is_none_or(|(_, rest)| rest.starts_with('Z')),
            Err(_) => true,
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rfd-perfbench-proc-{name}-{}", std::process::id()))
    }

    #[test]
    fn captures_lines_exit_status_and_rusage() {
        let err = scratch("ok");
        let p = Proc::spawn(
            Path::new("sh"),
            &["-c", "echo one; echo two; echo oops >&2"],
            &err,
            true,
        )
        .unwrap();
        let (exit, lines) = p.wait(Instant::now() + Duration::from_secs(30));
        assert!(exit.ok);
        assert!(exit.max_rss_mb > 0.0);
        let text: Vec<&str> = lines.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(text, ["one", "two"]);
        assert_eq!(std::fs::read_to_string(&err).unwrap(), "oops\n");
        std::fs::remove_file(&err).unwrap();
    }

    #[test]
    fn a_nonzero_exit_and_a_missed_deadline_are_not_ok() {
        let err = scratch("bad");
        let p = Proc::spawn(Path::new("sh"), &["-c", "exit 3"], &err, false).unwrap();
        assert!(!p.wait(Instant::now() + Duration::from_secs(30)).0.ok);
        let t0 = Instant::now();
        let p = Proc::spawn(Path::new("sleep"), &["30"], &err, false).unwrap();
        assert!(!p.wait(t0 + Duration::from_millis(50)).0.ok);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the child must be killed"
        );
        let p = Proc::spawn(Path::new("sleep"), &["30"], &err, false).unwrap();
        let pid = p.child.id();
        drop(p);
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "drop must kill and reap"
        );
        std::fs::remove_file(&err).unwrap();
    }

    #[test]
    fn await_stderr_finds_a_marker_and_gives_up_on_a_dead_child() {
        let err = scratch("marker");
        let mut p = Proc::spawn(
            Path::new("sh"),
            &["-c", "echo 'x: serving on 1.2.3.4:5' >&2"],
            &err,
            false,
        )
        .unwrap();
        let far = Instant::now() + Duration::from_secs(30);
        assert_eq!(
            p.await_stderr("serving on", far).as_deref(),
            Some("1.2.3.4:5")
        );
        assert_eq!(p.await_stderr("never printed", far), None);
        assert!(p.wait(far).0.ok);
        std::fs::remove_file(&err).unwrap();
    }
}
