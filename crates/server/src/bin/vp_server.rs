//! `vp-server` — serve a demo velocity-partitioned index over TCP.
//!
//! Builds an in-memory `VpIndex` (reference `ScanIndex` sub-indexes)
//! over a synthetic road-network population and serves it until a
//! client sends `Shutdown` (or the process is killed). Intended for
//! poking at the protocol with `VpClient` and for the quickstart
//! example; the integration tests and the load generator spawn the
//! server in-process instead.
//!
//! ```text
//! vp-server [--addr 127.0.0.1:7878] [--objects 10000]
//!           [--max-batch 32]
//! ```

use vp_core::traits::reference::ScanIndex;
use vp_core::{MovingObject, MovingObjectIndex, VelocityAnalyzer, VpConfig, VpIndex};
use vp_geom::Point;
use vp_server::{spawn, ServerConfig};

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Deterministic xorshift so runs are reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() % 1_000_000) as f64 / 1_000_000.0 * (hi - lo)
    }
}

/// Two orthogonal roads plus diagonal outliers — the same synthetic
/// shape the core tests use, sized by `n`.
fn population(n: usize) -> Vec<MovingObject> {
    let mut rng = Rng(0x5eed_cafe);
    let mut objs = Vec::with_capacity(n);
    for id in 0..n as u64 {
        let speed = rng.uniform(10.0, 90.0);
        let sign = if rng.next().is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        let jitter = rng.uniform(-0.4, 0.4);
        let vel = match id % 10 {
            0..=3 => Point::new(speed * sign, jitter),
            4..=7 => Point::new(jitter, speed * sign),
            _ => Point::new(speed * sign * 0.7, speed * sign * 0.7),
        };
        let pos = Point::new(rng.uniform(100.0, 99_900.0), rng.uniform(100.0, 99_900.0));
        objs.push(MovingObject::new(id, pos, vel, 0.0));
    }
    objs
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr: String = parse_flag(&args, "--addr", "127.0.0.1:7878".to_string());
    let objects: usize = parse_flag(&args, "--objects", 10_000);
    let config = ServerConfig {
        max_batch: parse_flag(&args, "--max-batch", 32),
        ..ServerConfig::default()
    };

    let objs = population(objects);
    let cfg = VpConfig::default();
    let velocities: Vec<Point> = objs.iter().map(|o| o.vel).collect();
    let analysis = VelocityAnalyzer::new(cfg.clone()).analyze(&velocities);
    let mut index =
        VpIndex::build(cfg, &analysis, |_spec| ScanIndex::new()).expect("demo index build failed");
    for o in &objs {
        index.insert(*o).expect("demo insert failed");
    }

    let handle = spawn(index, addr.as_str(), config).expect("bind failed");
    println!(
        "vp-server listening on {} ({} objects, {} partitions); send Shutdown to stop",
        handle.addr(),
        objects,
        analysis.partitions.len() + 1
    );
    handle.join();
    println!("vp-server stopped");
}
