//! Launchers: how a rank incarnation becomes a process.

use super::{FLEET_ADDR_ENV, FLEET_INCARNATION_ENV, FLEET_RANK_ENV, FLEET_SIZE_ENV};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What to launch: one rank incarnation of the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchSpec {
    /// Rank in `0..size`.
    pub rank: u32,
    /// Incarnation (1 = first launch).
    pub incarnation: u32,
    /// Fleet size.
    pub size: u32,
    /// Hub address the child must dial back to.
    pub addr: String,
}

/// A launched child the supervisor can poll, kill, and reap. `kill`
/// must be idempotent and `wait_exit` must actually reap (no zombies).
pub trait ProcessHandle: Send {
    /// OS pid or synthetic id, for logs.
    fn id(&self) -> u64;
    /// Non-blocking exit poll: `Some(status)` once the child exited.
    /// Signal deaths are reported as the negated signal number
    /// (`kill -9` → `-9`), mirroring waitpid conventions.
    fn poll_exit(&mut self) -> Option<i32>;
    /// Delivers SIGKILL (or the mock equivalent).
    fn kill(&mut self);
    /// Blocks until exit and reaps, returning the status.
    fn wait_exit(&mut self) -> i32;
}

/// Launches rank child processes.
pub trait RankLauncher: Send + Sync {
    /// Starts one rank incarnation.
    fn launch(&self, spec: &LaunchSpec) -> std::io::Result<Box<dyn ProcessHandle>>;
}

/// Re-execs the current binary with the `CCA_FLEET_*` environment set;
/// the child detects fleet mode via [`fleet_rank_env`].
///
/// [`fleet_rank_env`]: super::fleet_rank_env
pub struct ExecLauncher {
    exe: PathBuf,
    args: Vec<String>,
    envs: Vec<(String, String)>,
}

impl ExecLauncher {
    /// A launcher re-execing `std::env::current_exe()`.
    pub fn current_exe() -> std::io::Result<Self> {
        Ok(ExecLauncher {
            exe: std::env::current_exe()?,
            args: Vec::new(),
            envs: Vec::new(),
        })
    }

    /// Sets an extra environment variable for every child.
    pub fn with_env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.envs.push((key.into(), value.into()));
        self
    }
}

fn exit_code(status: std::process::ExitStatus) -> i32 {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            return -sig;
        }
    }
    status.code().unwrap_or(-1)
}

struct ChildHandle {
    child: std::process::Child,
}

impl ProcessHandle for ChildHandle {
    fn id(&self) -> u64 {
        u64::from(self.child.id())
    }

    fn poll_exit(&mut self) -> Option<i32> {
        match self.child.try_wait() {
            Ok(Some(status)) => Some(exit_code(status)),
            Ok(None) => None,
            Err(_) => Some(-1),
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
    }

    fn wait_exit(&mut self) -> i32 {
        self.child.wait().map(exit_code).unwrap_or(-1)
    }
}

impl RankLauncher for ExecLauncher {
    fn launch(&self, spec: &LaunchSpec) -> std::io::Result<Box<dyn ProcessHandle>> {
        let mut cmd = std::process::Command::new(&self.exe);
        cmd.args(&self.args)
            .env(FLEET_RANK_ENV, spec.rank.to_string())
            .env(FLEET_SIZE_ENV, spec.size.to_string())
            .env(FLEET_ADDR_ENV, &spec.addr)
            .env(FLEET_INCARNATION_ENV, spec.incarnation.to_string());
        for (k, v) in &self.envs {
            cmd.env(k, v);
        }
        Ok(Box::new(ChildHandle {
            child: cmd.spawn()?,
        }))
    }
}

/// One scripted mock child (tests): exits when told to.
pub struct MockProcess {
    /// Rank this process was launched for.
    pub rank: u32,
    /// Incarnation it was launched as.
    pub incarnation: u32,
    exit: Mutex<Option<i32>>,
    killed: AtomicBool,
}

impl MockProcess {
    /// Scripts this process to exit with `status` (e.g. `-9`).
    pub fn exit_with(&self, status: i32) {
        *self.exit.lock() = Some(status);
    }

    /// Whether the supervisor delivered a kill.
    pub fn was_killed(&self) -> bool {
        self.killed.load(Ordering::Acquire)
    }
}

/// In-test launcher recording every spawn as a scriptable
/// [`MockProcess`] — no OS processes, fully deterministic under
/// `MockClock`.
#[derive(Default)]
pub struct MockLauncher {
    spawned: Mutex<Vec<Arc<MockProcess>>>,
}

impl MockLauncher {
    /// An empty mock launcher.
    pub fn new() -> Arc<Self> {
        Arc::new(MockLauncher::default())
    }

    /// Every process launched so far, in launch order.
    pub fn spawned(&self) -> Vec<Arc<MockProcess>> {
        self.spawned.lock().clone()
    }

    /// The most recent launch for `rank`.
    pub fn last_for_rank(&self, rank: u32) -> Option<Arc<MockProcess>> {
        self.spawned
            .lock()
            .iter()
            .rev()
            .find(|p| p.rank == rank)
            .cloned()
    }
}

struct MockHandle {
    proc: Arc<MockProcess>,
}

impl ProcessHandle for MockHandle {
    fn id(&self) -> u64 {
        u64::from(self.proc.rank) << 32 | u64::from(self.proc.incarnation)
    }

    fn poll_exit(&mut self) -> Option<i32> {
        *self.proc.exit.lock()
    }

    fn kill(&mut self) {
        self.proc.killed.store(true, Ordering::Release);
        let mut exit = self.proc.exit.lock();
        if exit.is_none() {
            *exit = Some(-9);
        }
    }

    fn wait_exit(&mut self) -> i32 {
        loop {
            if let Some(status) = *self.proc.exit.lock() {
                return status;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl RankLauncher for MockLauncher {
    fn launch(&self, spec: &LaunchSpec) -> std::io::Result<Box<dyn ProcessHandle>> {
        let proc = Arc::new(MockProcess {
            rank: spec.rank,
            incarnation: spec.incarnation,
            exit: Mutex::new(None),
            killed: AtomicBool::new(false),
        });
        self.spawned.lock().push(Arc::clone(&proc));
        Ok(Box::new(MockHandle { proc }))
    }
}
