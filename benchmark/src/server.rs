//! The system under test as a separate process: spawn `frappe-serve` with
//! operator defaults, find its ports through the addr-file, read its CPU
//! time and peak RSS from `/proc`, scrape its exporter, and make sure it is
//! gone on every exit path.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

pub struct Server {
    child: Child,
    pub query: SocketAddr,
    pub metrics: SocketAddr,
    /// Spawn → addr-file readable.
    pub ready: Duration,
    stderr_path: PathBuf,
    addr_path: PathBuf,
}

/// Flags beyond the snapshot and the two `:0` listeners. Empty for every
/// measured window: the child runs with operator defaults.
pub type ExtraFlags<'a> = &'a [&'a str];

impl Server {
    /// Spawns `bin --snapshot F --listen 127.0.0.1:0 --metrics 127.0.0.1:0
    /// --addr-file A` plus `extra`, and waits for the addr-file. `tag` keeps
    /// concurrent children's files apart inside `workdir`.
    pub fn spawn(
        bin: &Path,
        snapshot: &Path,
        workdir: &Path,
        tag: &str,
        extra: ExtraFlags<'_>,
    ) -> Result<Server, String> {
        let addr_path = workdir.join(format!("addr-{tag}.txt"));
        let stderr_path = workdir.join(format!("serve-{tag}.err"));
        let _ = std::fs::remove_file(&addr_path);
        let stderr = std::fs::File::create(&stderr_path).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let child = Command::new(bin)
            .arg("--snapshot")
            .arg(snapshot)
            .args(["--listen", "127.0.0.1:0", "--metrics", "127.0.0.1:0"])
            .arg("--addr-file")
            .arg(&addr_path)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            query: SocketAddr::from(([127, 0, 0, 1], 0)),
            metrics: SocketAddr::from(([127, 0, 0, 1], 0)),
            ready: Duration::ZERO,
            stderr_path,
            addr_path,
        };
        loop {
            if let Some((query, metrics)) = read_addr_file(&server.addr_path) {
                server.query = query;
                server.metrics = metrics;
                server.ready = started.elapsed();
                return Ok(server);
            }
            if let Some(status) = server.exited() {
                return Err(format!(
                    "frappe-serve exited ({status}) before listening: {}",
                    server.stderr_text()
                ));
            }
            if started.elapsed() > Duration::from_secs(60) {
                return Err("frappe-serve wrote no addr-file within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The exit status if the child is gone.
    pub fn exited(&mut self) -> Option<std::process::ExitStatus> {
        self.child.try_wait().ok().flatten()
    }

    pub fn stderr_text(&self) -> String {
        std::fs::read_to_string(&self.stderr_path).unwrap_or_default()
    }

    /// utime + stime of the live child, in seconds.
    pub fn cpu_s(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        stat_cpu_ticks(&stat, 13).map(|t| t as f64 / TICKS_PER_S)
    }

    /// Peak resident set (`VmHWM`) of the live child, in MB.
    pub fn rss_peak_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        status_kb(&status, "VmHWM:").map(|kb| kb as f64 / 1024.0)
    }

    /// `GET path` on the child's exporter; the body on `200`.
    pub fn http_get(&self, path: &str) -> Result<String, String> {
        let mut s = TcpStream::connect(self.metrics).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(10))).ok();
        write!(
            s,
            "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
        )
        .map_err(|e| e.to_string())?;
        let mut response = String::new();
        s.read_to_string(&mut response).map_err(|e| e.to_string())?;
        let (head, body) = response
            .split_once("\r\n\r\n")
            .ok_or("malformed HTTP response")?;
        if !head.starts_with("HTTP/1.1 200") {
            return Err(format!("GET {path}: {}", head.lines().next().unwrap_or("")));
        }
        Ok(body.to_owned())
    }

    /// Sends `!shutdown`, waits for the acknowledgement and reaps the child.
    /// A child that does not leave within 15 s is killed.
    pub fn shutdown(mut self) -> Result<(), String> {
        let ack = (|| -> std::io::Result<String> {
            let mut s = TcpStream::connect(self.query)?;
            s.set_read_timeout(Some(Duration::from_secs(15)))?;
            s.write_all(b"!shutdown\n")?;
            let mut line = String::new();
            BufReader::new(s).read_line(&mut line)?;
            Ok(line)
        })();
        let deadline = Instant::now() + Duration::from_secs(15);
        while self.exited().is_none() {
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err("frappe-serve ignored !shutdown for 15 s; killed".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        match ack {
            Ok(line) if line.contains("\"shutdown\": true") => Ok(()),
            Ok(line) => Err(format!("unexpected !shutdown reply {line:?}")),
            Err(e) => Err(format!("!shutdown: {e}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Error and panic paths: never leave a child behind.
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.addr_path);
    }
}

fn read_addr_file(path: &Path) -> Option<(SocketAddr, SocketAddr)> {
    parse_addrs(&std::fs::read_to_string(path).ok()?)
}

fn parse_addrs(text: &str) -> Option<(SocketAddr, SocketAddr)> {
    // The server writes the file in one `write`; a torn read lacks the
    // final newline and is retried.
    if !text.ends_with('\n') {
        return None;
    }
    let field = |key: &str| -> Option<SocketAddr> {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.parse().ok())
    };
    Some((field("query=")?, field("metrics=")?))
}

/// Sum of two adjacent tick fields of a `/proc/*/stat` line, `first` being
/// the 0-based field index: 13 = utime + stime of the process, 15 = cutime +
/// cstime of its reaped children.
fn stat_cpu_ticks(stat: &str, first: usize) -> Option<u64> {
    // comm (field 1) may contain spaces and parentheses; the fields after
    // it resume behind the last ')', starting with field 2.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let at = |overall: usize| fields.get(overall - 2)?.parse::<u64>().ok();
    Some(at(first)? + at(first + 1)?)
}

fn status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// CPU seconds of every child this process has reaped so far
/// (cutime + cstime): whole-child rusage for the `cold_start` cycles.
pub fn reaped_children_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    stat_cpu_ticks(&stat, 15).map(|t| t as f64 / TICKS_PER_S)
}

/// utime + stime of this process: the load generator's own cost.
pub fn self_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    stat_cpu_ticks(&stat, 13).map(|t| t as f64 / TICKS_PER_S)
}

/// Anonymous resident memory of this process in MB (`RssAnon`): heap, as
/// opposed to mapped file pages.
pub fn self_rss_anon_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_kb(&status, "RssAnon:").map(|kb| kb as f64 / 1024.0)
}

/// The p50 a Prometheus summary family reports, e.g.
/// `frappe_serve_req_queue_ns{quantile="0.5"} 5792.6`.
pub fn summary_p50(metrics: &str, family: &str) -> Option<f64> {
    let prefix = format!("{family}{{quantile=\"0.5\"}} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .and_then(|v| v.trim().parse().ok())
}

/// A counter or gauge sample; absent families read as 0 (the registry only
/// renders counters that were ever touched).
pub fn sample(metrics: &str, family: &str) -> f64 {
    let prefix = format!("{family} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_fields_survive_awkward_comm() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
        // majflt cmajflt utime stime cutime cstime ...
        let stat = "42 (fra) ppe (x) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 700 30 20 0 5";
        assert_eq!(stat_cpu_ticks(stat, 13), Some(300));
        assert_eq!(stat_cpu_ticks(stat, 15), Some(730));
        assert_eq!(stat_cpu_ticks("garbage", 13), None);
    }

    #[test]
    fn proc_status_and_prometheus_scraping() {
        let status = "Name:\tfrappe-serve\nVmHWM:\t  294912 kB\nRssAnon:\t    1024 kB\n";
        assert_eq!(status_kb(status, "VmHWM:"), Some(294_912));
        assert_eq!(status_kb(status, "RssAnon:"), Some(1024));
        let metrics = "# TYPE frappe_serve_req_queue_ns summary\n\
                       frappe_serve_req_queue_ns{quantile=\"0.5\"} 5792.5\n\
                       frappe_serve_req_queue_ns{quantile=\"0.95\"} 16675\n\
                       frappe_serve_req_queue_ns_count 10\n\
                       frappe_serve_loop_stalls 0\n\
                       frappe_serve_admit_shed_total 3\n";
        assert_eq!(
            summary_p50(metrics, "frappe_serve_req_queue_ns"),
            Some(5792.5)
        );
        assert_eq!(summary_p50(metrics, "frappe_serve_req_exec_ns"), None);
        assert_eq!(sample(metrics, "frappe_serve_admit_shed_total"), 3.0);
        assert_eq!(sample(metrics, "frappe_serve_lines_too_long"), 0.0);
    }

    #[test]
    fn addr_file_is_read_only_when_complete() {
        assert_eq!(
            parse_addrs("query=127.0.0.1:4000\nmetrics=127.0.0.1:40"),
            None
        );
        assert_eq!(parse_addrs("query=127.0.0.1:4000\n"), None);
        let (q, m) = parse_addrs("query=127.0.0.1:4000\nmetrics=127.0.0.1:4001\n").unwrap();
        assert_eq!((q.port(), m.port()), (4000, 4001));
    }
}
