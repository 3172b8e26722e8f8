//! Statistics, child processes, a keep-alive HTTP client, and the JSON
//! result line shared by every workload.

use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` ∈ [0, 1] of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// SplitMix64: the benchmark's own seeded generator, so inputs and
/// samples depend only on `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Derives an independent seed from `seed` and a stream index.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed.wrapping_mul(0x1000_0000_01B3) ^ stream).next_u64()
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed);
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// FNV-1a over bytes: compares replies without holding them.
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Servers still running, so that `die` can stop them.
static SERVERS: std::sync::Mutex<Vec<u32>> = std::sync::Mutex::new(Vec::new());
/// The run's work directory, so that `die` can remove it.
static WORK_DIR: std::sync::Mutex<Option<PathBuf>> = std::sync::Mutex::new(None);

/// A command whose process is killed when this one ends, however it
/// ends.
pub fn child_command(program: &Path) -> Command {
    use std::os::unix::process::CommandExt;
    let mut cmd = Command::new(program);
    // SAFETY: prctl(PR_SET_PDEATHSIG, SIGKILL) is async-signal-safe.
    unsafe {
        cmd.pre_exec(|| {
            prctl(1, 9, 0, 0, 0);
            Ok(())
        });
    }
    cmd
}

/// How a child process ended.
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// The signal that ended it, if any.
    pub signal: Option<i32>,
    /// Peak resident set in MiB.
    pub max_rss_mb: f64,
}

impl Exit {
    /// Whether a run at engine `width` ended the way the width-`nproc`
    /// latch fault ends it: on a signal, or at width > 1 with any failing
    /// exit code (memory the fault corrupts can fail a pass either way).
    /// Such a run is run again and counted, not failed.
    pub fn crashed(&self, width: usize) -> bool {
        let crashed = self.signal.is_some() || (width > 1 && self.code != Some(0));
        if crashed {
            eprintln!(
                "a width-{width} run ended with signal {:?}, exit code {:?}; running it again",
                self.signal, self.code
            );
        }
        crashed
    }
}

/// Waits for `child` and reports its exit plus peak memory. Reaps the
/// child through `wait4`, so `child.wait()` must not be called after.
pub fn wait_rusage(child: Child) -> Exit {
    let pid = child.id() as i32;
    let mut status: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    loop {
        // SAFETY: `status` and `ru` are valid for writes; `pid` is our
        // own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        if r == -1 && std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted {
            continue;
        }
        panic!("wait4({pid}) failed: {}", std::io::Error::last_os_error());
    }
    // `Child` would otherwise try nothing on drop; forget it so its
    // handles close without a second wait.
    drop(child);
    let signal = status & 0x7f;
    Exit {
        code: (signal == 0).then_some((status >> 8) & 0xff),
        signal: (signal != 0).then_some(signal),
        max_rss_mb: ru.longs[0] as f64 / 1024.0,
    }
}

/// A child still running after this long is killed (SIGKILL), so a hung
/// pass reads as one that crashed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs a command to completion; returns its wall time and exit.
pub fn run_timed(cmd: &mut Command) -> (f64, Exit) {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let t0 = Instant::now();
    let child = cmd
        .spawn()
        .unwrap_or_else(|e| die(format!("cannot spawn {cmd:?}: {e}")));
    let pid = child.id() as i32;
    let (done, watch) = std::sync::mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if watch.recv_timeout(CHILD_TIMEOUT).is_err() {
            // SAFETY: kill(2) on our own child, not yet reaped (the main
            // thread is blocked in wait4 on it).
            unsafe { kill(pid, 9) };
        }
    });
    let exit = wait_rusage(child);
    let wall = t0.elapsed().as_secs_f64();
    let _ = done.send(());
    let _ = watchdog.join();
    (wall, exit)
}

/// Prints a diagnostic and exits without a result line.
pub fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("perfbench: error: {msg}");
    for pid in SERVERS.lock().map(|s| s.clone()).unwrap_or_default() {
        let mut status = 0;
        // SAFETY: kill(2) and wait4(2) on our own child's pid.
        unsafe {
            kill(pid as i32, 9);
            wait4(pid as i32, &mut status, 0, std::ptr::null_mut());
        }
    }
    if let Some(dir) = WORK_DIR.lock().ok().and_then(|mut d| d.take()) {
        remove_work_dir(&dir);
    }
    std::process::exit(1);
}

/// Where the benchmark writes its inputs and outputs: a fresh directory
/// under `.bench_run/` in the current directory, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> WorkDir {
        let dir = PathBuf::from(".bench_run").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| die(format!("cannot create {}: {e}", dir.display())));
        *WORK_DIR.lock().expect("work dir lock") = Some(dir.clone());
        WorkDir(dir)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        WORK_DIR.lock().expect("work dir lock").take();
        remove_work_dir(&self.0);
    }
}

/// Removes a work directory, and `.bench_run` once it is empty.
fn remove_work_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(".bench_run");
}

/// Reads every `.qasm` file of `dir`, sorted by name.
pub fn read_qasm_dir(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| die(format!("cannot read {}: {e}", dir.display())))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "qasm"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p)
                .unwrap_or_else(|e| die(format!("cannot read {}: {e}", p.display())));
            (p.file_name().unwrap().to_string_lossy().into_owned(), text)
        })
        .collect()
}

/// A running `popqc serve`, stopped and reaped on drop.
pub struct Server {
    child: Option<Child>,
    pub addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts `popqc serve` with its default flags on an ephemeral port
    /// and returns once it answers `GET /healthz`.
    pub fn start(popqc: &Path) -> Server {
        let mut child = child_command(popqc)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| die(format!("cannot start popqc serve: {e}")));
        SERVERS.lock().expect("servers lock").push(child.id());
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if stderr.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                die("popqc serve exited before listening");
            }
            if let Some(i) = line.find("http://") {
                let rest = &line[i + 7..];
                let end = rest
                    .find(|c: char| c.is_whitespace() || c == '"')
                    .unwrap_or(rest.len());
                addr = Some(rest[..end].to_string());
            }
        }
        // The server logs one line per request; keep its pipe drained.
        let drain = std::thread::spawn(move || {
            let mut sink = [0u8; 8192];
            while matches!(stderr.read(&mut sink), Ok(n) if n > 0) {}
        });
        let server = Server {
            child: Some(child),
            addr: addr.expect("address parsed"),
            drain: Some(drain),
        };
        let mut client = Client::connect(&server.addr);
        let (status, _) = client.get("/healthz");
        if status != 200 {
            die(format!("GET /healthz answered {status}"));
        }
        server
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    /// Peak resident set of the server so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .unwrap_or(0.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            SERVERS
                .lock()
                .expect("servers lock")
                .retain(|&p| p != child.id());
            // SIGTERM, then reap; the drain thread ends at pipe EOF.
            // SAFETY: plain kill(2) on our own child's pid.
            unsafe { kill(child.id() as i32, 15) };
            let _ = wait_rusage(child);
        }
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
    }
}

/// One keep-alive HTTP/1.1 connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Client {
        let stream =
            TcpStream::connect(addr).unwrap_or_else(|e| die(format!("connect {addr}: {e}")));
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Sends raw request bytes and reads one response: `(status, body)`.
    pub fn roundtrip(&mut self, request: &[u8]) -> (u16, Vec<u8>) {
        self.writer
            .write_all(request)
            .unwrap_or_else(|e| die(format!("send: {e}")));
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .unwrap_or_else(|e| die(format!("receive: {e}")));
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| die(format!("malformed status line {line:?}")));
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader
                .read_line(&mut line)
                .unwrap_or_else(|e| die(format!("receive: {e}")));
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .unwrap_or_else(|e| die(format!("receive body: {e}")));
        (status, body)
    }

    pub fn get(&mut self, path: &str) -> (u16, Vec<u8>) {
        self.roundtrip(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
    }

    /// `GET /v1/stats` → `oracle_calls_issued`.
    pub fn oracle_calls_issued(&mut self) -> u64 {
        let (status, body) = self.get("/v1/stats");
        if status != 200 {
            die(format!("GET /v1/stats answered {status}"));
        }
        let doc = serde_json::from_str(&String::from_utf8_lossy(&body))
            .unwrap_or_else(|e| die(format!("bad stats document: {e}")));
        find_u64(&doc, "oracle_calls_issued")
            .unwrap_or_else(|| die("stats document lacks oracle_calls_issued"))
    }
}

/// First member named `key` anywhere in `v` (depth-first), as u64.
pub fn find_u64(v: &Value, key: &str) -> Option<u64> {
    match v {
        Value::Object(pairs) => pairs.iter().find_map(|(k, x)| {
            if k == key {
                x.as_u64()
            } else {
                find_u64(x, key)
            }
        }),
        Value::Array(xs) => xs.iter().find_map(|x| find_u64(x, key)),
        _ => None,
    }
}

/// The raw bytes of one `POST /v1/optimize` carrying `qasm`.
pub fn optimize_request(qasm: &str, query: &str) -> Vec<u8> {
    let mut req = format!(
        "POST /v1/optimize{query} HTTP/1.1\r\nHost: bench\r\nContent-Type: text/plain\r\n\
         Content-Length: {}\r\n\r\n",
        qasm.len()
    )
    .into_bytes();
    req.extend_from_slice(qasm.as_bytes());
    req
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What a workload hands back: the operation counts and its metrics.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn to_json_line(&self) -> String {
        let metrics = Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    // `+ 0.0` turns a -0 (an empty float sum) into 0.
                    let value = if m.value.is_finite() {
                        m.value + 0.0
                    } else {
                        0.0
                    };
                    (
                        m.name.clone(),
                        Value::Object(vec![
                            ("value".to_string(), Value::from(value)),
                            ("unit".to_string(), Value::from(m.unit)),
                        ]),
                    )
                })
                .collect(),
        );
        let doc = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::from(self.attempted)),
            ("failed".to_string(), Value::from(self.failed)),
            ("metrics".to_string(), metrics),
        ]);
        serde_json::to_string(&doc).expect("serialize result")
    }
}
