//! Order statistics, the metrics line, and the process and machine
//! readings taken next to each run.

use crate::replay::Span;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// The median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The `q`-quantile by linear interpolation between closest ranks; 0
/// when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Mean of a list of counts; 0 when empty.
pub fn mean_usize(values: &[usize]) -> f64 {
    values.iter().sum::<usize>() as f64 / values.len().max(1) as f64
}

/// Named metrics with units, in the order they are pushed.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Add one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|&(name, value, unit)| {
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// This process's resident-set high-water mark, in KiB.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The machine's own speed and steal time at one instant: a fixed CPU
/// loop's duration plus the aggregate `/proc/stat` tick counters. Two
/// samples around a run tell a slow machine from a slow program.
pub struct Noise {
    loop_ms: f64,
    steal_ticks: u64,
    total_ticks: u64,
}

impl Noise {
    /// Time the fixed loop and read the tick counters.
    pub fn sample() -> Noise {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..20_000_000u64 {
            x = black_box(x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i));
            x ^= x >> 29;
        }
        black_box(x);
        let loop_ms = start.elapsed().as_secs_f64() * 1e3;
        let ticks: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|stat| stat.lines().next().map(str::to_string))
            .map(|cpu| {
                cpu.split_whitespace()
                    .skip(1)
                    .filter_map(|t| t.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        Noise {
            loop_ms,
            steal_ticks: ticks.get(7).copied().unwrap_or(0),
            total_ticks: ticks.iter().sum(),
        }
    }

    /// Log the loop time before and after, and the steal share between.
    pub fn report_since(&self, before: &Noise) {
        let total = self.total_ticks.saturating_sub(before.total_ticks).max(1);
        let steal = self.steal_ticks.saturating_sub(before.steal_ticks);
        eprintln!(
            "servebench: machine: cpu loop {:.2} ms before, {:.2} ms after; steal {} of {} ticks ({:.2}%)",
            before.loop_ms,
            self.loop_ms,
            steal,
            total,
            steal as f64 * 100.0 / total as f64
        );
    }
}

/// Write the traced replay's spans as tab-separated rows under
/// `servebench/out/`, relative to the working directory.
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) {
    let mut text = String::from("span\tname\tstart_ns\tend_ns\tparent\trequest\n");
    for (i, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or(String::from("-"), |p| p.to_string());
        let request = span.request.map_or(String::from("-"), |r| r.to_string());
        let _ = writeln!(
            text,
            "{i}\t{}\t{}\t{}\t{parent}\t{request}",
            span.name, span.start_ns, span.end_ns
        );
    }
    let dir = std::path::Path::new("servebench/out");
    let path = dir.join(format!("{workload}-seed{seed}.spans.tsv"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => eprintln!(
            "servebench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("servebench: spans not written to {}: {e}", path.display()),
    }
}
