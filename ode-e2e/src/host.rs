//! What the benchmark reads from the host: process CPU and memory from
//! `/proc`, and two environment floors (loopback round trip, fsync) that
//! tell a noisy day from a regression.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use crate::stats::percentile;

/// Kernel clock ticks per second (`USER_HZ`); 100 on every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat format") + 2..];
    let mut fields = rest.split(' ');
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let utime: f64 = fields.nth(11).and_then(|f| f.parse().ok()).expect("utime");
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).expect("stime");
    (utime + stime) / TICKS_PER_S
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM");
    kb / 1024.0
}

/// Median round trip, in µs, of one byte bounced between two threads over a
/// loopback TCP connection: the floor under every wire statement.
pub fn loopback_rtt_us(samples: usize) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        s.set_nodelay(true).ok();
        let mut b = [0u8; 1];
        while s.read_exact(&mut b).is_ok() {
            if s.write_all(&b).is_err() {
                break;
            }
        }
    });
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).ok();
    let mut b = [7u8; 1];
    let mut ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        s.write_all(&b).expect("write");
        s.read_exact(&mut b).expect("read");
        ns.push(t.elapsed().as_nanos() as u32);
    }
    drop(s);
    echo.join().expect("echo thread");
    ns.sort_unstable();
    percentile(&ns, 0.5) as f64 / 1e3
}

/// Median time, in µs, to append 4 KiB to a file in `dir` and `sync_data` it:
/// the floor under every durable commit.
pub fn fsync_us(dir: &Path, samples: usize) -> f64 {
    std::fs::create_dir_all(dir).expect("create dir");
    let path = dir.join("fsync-probe");
    let mut f = std::fs::File::create(&path).expect("create probe file");
    let block = [0u8; 4096];
    let mut ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        f.write_all(&block).expect("write");
        f.sync_data().expect("sync_data");
        ns.push(t.elapsed().as_nanos() as u32);
    }
    drop(f);
    let _ = std::fs::remove_file(&path);
    ns.sort_unstable();
    percentile(&ns, 0.5) as f64 / 1e3
}
