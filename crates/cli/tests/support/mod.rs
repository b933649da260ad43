//! Runs the workspace's binaries as real processes: each child gets an
//! explicit environment, a daemon reports the address it bound, and
//! signals are real. Shared by `isum-cli`'s and `isum-experiments`'
//! process tests.
#![allow(dead_code)] // each test binary uses a different part

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `bin` in `dir`, with no `ISUM_*` variable but those in `env`.
pub fn command(bin: &str, dir: &Path, env: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(bin);
    cmd.current_dir(dir);
    for (key, _) in std::env::vars_os().filter(|(k, _)| k.to_string_lossy().starts_with("ISUM_")) {
        cmd.env_remove(key);
    }
    cmd.envs(env.iter().copied());
    cmd
}

/// Runs `cmd` to a zero exit and returns its stdout.
pub fn run(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{cmd:?} failed: {}\n{stderr}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A fresh, empty scratch directory for one test.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("isum_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A running `isum serve`, killed when dropped.
pub struct Daemon {
    child: Child,
    /// The address the daemon bound.
    pub addr: String,
}

impl Daemon {
    /// Spawns `cmd`, an `isum serve --listen 127.0.0.1:0`, and waits for
    /// its `isum-serve listening on` line. A thread drains the rest of its
    /// stderr, so a chatty daemon never blocks on a full pipe.
    pub fn spawn(cmd: &mut Command) -> Daemon {
        let mut child = cmd.stdout(Stdio::null()).stderr(Stdio::piped()).spawn().expect("spawns");
        let stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("isum-serve listening on ") {
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        let addr = rx.recv_timeout(Duration::from_secs(60)).expect("the daemon listens");
        Daemon { child, addr }
    }

    /// SIGKILL: no drain, no final write.
    pub fn kill(mut self) {
        self.child.kill().expect("SIGKILL");
        self.child.wait().expect("reaps");
    }

    /// SIGTERM, then the daemon's exit status once it has drained. A
    /// daemon still running 10 s later is SIGKILLed and the test fails,
    /// rather than hanging until CI gives up.
    pub fn terminate(mut self) -> ExitStatus {
        extern "C" {
            fn kill(pid: i32, signum: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        assert_eq!(unsafe { kill(self.child.id() as i32, SIGTERM) }, 0, "SIGTERM");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait().expect("polls") {
                return status;
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                panic!("the daemon did not exit within 10 s of SIGTERM");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
