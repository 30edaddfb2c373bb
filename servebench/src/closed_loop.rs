//! The untraced runs: seeded frames through the real front
//! (`nra_serve::spawn` + `Client` over the in-repo socketpair), one
//! client thread over one connection, each answer checked against its
//! reference outside the clock.

use crate::reference::Tally;
use crate::workload::{Class, Job};
use nra_serve::{spawn, Client, Outcome, ServeConfig, ServeReport};
use std::collections::{BTreeMap, HashSet};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One answered frame's latency, from the send of its burst to its answer.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request class.
    pub class: Class,
    /// Latency in milliseconds.
    pub ms: f64,
}

/// What one closed-loop run measured.
#[derive(Debug)]
pub struct LoopRun {
    /// Every answered frame's latency.
    pub samples: Vec<Sample>,
    /// Time with a burst outstanding, summed over bursts.
    pub busy: Duration,
    /// Frames answered per second of outstanding time, per cycle.
    pub cycle_qps: Vec<f64>,
    /// Answers checked against their references.
    pub tally: Tally,
    /// Share of frames whose (query, input) pair an earlier frame of the
    /// run already sent.
    pub repeat_share: f64,
    /// The server's closing books.
    pub report: ServeReport,
}

/// A running server and its one connection, checking every answer.
pub struct Front {
    client: Client,
    handle: JoinHandle<ServeReport>,
    run: LoopRun,
    seen: HashSet<String>,
    cycle_start: (usize, Duration),
}

impl Front {
    /// Spawn a fresh server under `config`.
    pub fn start(config: ServeConfig) -> Front {
        let (client, handle) = spawn(config);
        Front {
            client,
            handle,
            run: LoopRun {
                samples: Vec::new(),
                busy: Duration::ZERO,
                cycle_qps: Vec::new(),
                tally: Tally::default(),
                repeat_share: 0.0,
                report: ServeReport::default(),
            },
            seen: HashSet::new(),
            cycle_start: (0, Duration::ZERO),
        }
    }

    /// Time with a burst outstanding so far.
    pub fn busy(&self) -> Duration {
        self.run.busy
    }

    /// Send `burst` as one transport chunk, wait for every answer, and
    /// check each one.
    pub fn burst(&mut self, burst: &[&Job]) {
        let mut chunk = Vec::new();
        for job in burst {
            chunk.extend_from_slice(job.line.as_bytes());
            chunk.push(b'\n');
        }
        let slot: BTreeMap<u64, usize> = burst.iter().enumerate().map(|(i, j)| (j.id, i)).collect();
        assert_eq!(slot.len(), burst.len(), "ids are unique within a burst");
        let mut answers: Vec<Option<(Duration, Outcome)>> = vec![None; burst.len()];

        let start = Instant::now();
        self.client.tx.send_bytes(chunk).expect("server inbox open");
        for _ in 0..burst.len() {
            let response = self
                .client
                .recv()
                .expect("server alive")
                .expect("response decodes");
            let at = start.elapsed();
            let i = slot[&response.id];
            answers[i] = Some((at, response.outcome));
        }
        self.run.busy += start.elapsed();

        for (job, answer) in burst.iter().zip(answers) {
            let (at, outcome) = answer.expect("one answer per frame");
            self.run.samples.push(Sample {
                class: job.class,
                ms: at.as_secs_f64() * 1e3,
            });
            if let Err(e) = self.run.tally.record(&job.expect, &outcome) {
                eprintln!("servebench: request {} ({}): {e}", job.id, job.class.name());
            }
            if !self.seen.insert(job.key().to_string()) {
                self.run.repeat_share += 1.0;
            }
        }
    }

    /// Close the current cycle of the workload, recording its throughput.
    pub fn end_cycle(&mut self) {
        let (frames, busy) = self.cycle_start;
        let now = (self.run.samples.len(), self.run.busy);
        self.run
            .cycle_qps
            .push((now.0 - frames) as f64 / (now.1 - busy).as_secs_f64());
        self.cycle_start = now;
    }

    /// Shut the server down and collect its report.
    pub fn finish(mut self) -> LoopRun {
        self.client.shutdown().expect("shutdown frame");
        self.run.report = self.handle.join().expect("server thread");
        self.run.repeat_share /= self.run.samples.len().max(1) as f64;
        self.run
    }
}
