//! The closed-loop load generator: one client thread sends the next
//! request only after the previous response is parsed. Every response
//! is checked for `"ok":true` and its id; failures are counted by
//! category instead of aborting the run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bmb_serve::json::{parse, Value};
use bmb_serve::Client;

use crate::probe::{self, Environment};
use crate::stats::{Latencies, FAILED, MIN_BEYOND};
use crate::trace::{SpanId, Tracer, NO_PARENT};

/// Which latency distribution an op lands in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The workload's primary op: a query.
    Read,
    /// An ingest; acked only after the WAL's sync barrier.
    Write,
    /// Operator work (checkpoints): timed into the window, not an op.
    Admin,
}

/// One request line of a workload's op sequence.
#[derive(Clone, Debug)]
pub struct Op {
    /// The request, one JSON object without the newline.
    pub line: String,
    /// Its distribution.
    pub kind: Kind,
    /// The `"id"` the response must echo.
    pub id: i64,
    /// Workload-specific payload index (an ingest's batch).
    pub tag: usize,
}

/// Length of a time slice. Each end-to-end metric is the interquartile
/// mean over slices: a burst of machine noise (steal, a neighbour) that
/// hits a few slices does not move it, and unlike the median it does
/// not jump between a quiet and a disturbed level of the machine when
/// they share a run about equally, but moves with their shares.
pub const SLICE: Duration = Duration::from_millis(500);

/// A slice closes only once it holds this many reads, so its p90 has
/// [`MIN_BEYOND`] samples beyond it; a slow workload gets fewer, longer
/// slices instead of slices whose percentiles do not count.
pub const MIN_SLICE_READS: usize = 10 * MIN_BEYOND;

/// One slice of a window.
#[derive(Debug, Default)]
pub struct Slice {
    /// Read-latency median, µs.
    pub p50_us: f64,
    /// Read-latency 90th percentile, µs (infinite when it falls on a
    /// failed op).
    pub p90_us: f64,
    /// Ops completed in this slice.
    pub completed: u64,
    /// Slice length, s.
    pub elapsed_s: f64,
    /// Process CPU µs in this slice.
    pub cpu_us: f64,
    /// Machine-wide steal ticks in this slice.
    pub steal_ticks: u64,
}

/// The clock, CPU time and steal of a paused [`Meter`].
struct Pause {
    at: Instant,
    cpu_us: f64,
    steal: u64,
}

/// CPU time, steal and calibration around one measured window, cut
/// into slices: by time ([`Meter::timed`]) or by the caller at the end
/// of each pass over a cyclic workload ([`Meter::cycled`]).
pub struct Meter {
    start: Instant,
    cpu_us: f64,
    steal: u64,
    env: Environment,
    slice_len: Option<Duration>,
    /// When the current time slice may close.
    deadline: Instant,
    slice_start: Instant,
    slice_cpu_us: f64,
    slice_steal: u64,
    current: Slice,
    reads: Latencies,
    slices: Vec<Slice>,
    pause: Option<Pause>,
    peak_rss_mb: Option<f64>,
}

impl Meter {
    /// Runs the calibration loop, then starts the clock for a window cut
    /// into [`SLICE`]s of at least [`MIN_SLICE_READS`] reads each.
    pub fn timed() -> Meter {
        Meter::start(Some(SLICE))
    }

    /// Runs the calibration loop, then starts the clock for a window
    /// whose slices the caller cuts with [`Meter::cut`].
    pub fn cycled() -> Meter {
        Meter::start(None)
    }

    fn start(slice_len: Option<Duration>) -> Meter {
        let calibration_before_ms = probe::calibration_ms();
        let machine = probe::machine_stat();
        let start = Instant::now();
        let cpu_us = probe::process_cpu_us();
        Meter {
            start,
            cpu_us,
            steal: machine.steal_ticks,
            env: Environment {
                calibration_before_ms,
                ..Environment::default()
            },
            slice_len,
            deadline: start + slice_len.unwrap_or_default(),
            slice_start: start,
            slice_cpu_us: cpu_us,
            slice_steal: machine.steal_ticks,
            current: Slice::default(),
            reads: Latencies::unbounded(),
            slices: Vec::new(),
            pause: None,
            peak_rss_mb: None,
        }
    }

    /// Records one op of the current slice; closes a time slice when
    /// its time is up and it holds enough reads. Time slices end on a
    /// fixed grid from the start, so the last one ends with the window.
    pub fn record(&mut self, kind: Kind, latency: u64) {
        if kind == Kind::Read {
            self.reads.push(latency);
        }
        if latency != FAILED {
            self.current.completed += 1;
        }
        if let Some(len) = self.slice_len {
            if Instant::now() >= self.deadline && self.reads.len() >= MIN_SLICE_READS {
                self.deadline += len;
                self.cut();
            }
        }
    }

    /// Closes the current slice. A slice without [`MIN_SLICE_READS`]
    /// reads is dropped: its ops still count as attempted, but it enters
    /// no metric.
    pub fn cut(&mut self) {
        let now = Instant::now();
        let cpu_us = probe::process_cpu_us();
        let steal = probe::machine_stat().steal_ticks;
        let mut slice = std::mem::take(&mut self.current);
        if let (Ok(p50), Ok(p90)) = (self.reads.quantile_us(0.5), self.reads.quantile_us(0.9)) {
            slice.p50_us = p50;
            slice.p90_us = p90;
            slice.elapsed_s = (now - self.slice_start).as_secs_f64();
            slice.cpu_us = cpu_us - self.slice_cpu_us;
            slice.steal_ticks = steal.saturating_sub(self.slice_steal);
            self.slices.push(slice);
        }
        if self.slice_len.is_none() && self.peak_rss_mb.is_none() {
            self.peak_rss_mb = Some(probe::peak_rss_mb());
        }
        self.reads.clear();
        self.slice_start = now;
        self.slice_cpu_us = cpu_us;
        self.slice_steal = steal;
    }

    /// Stops the clock (and the CPU and steal counts) until
    /// [`Meter::resume`], for untimed work inside the window.
    pub fn pause(&mut self) {
        self.pause = Some(Pause {
            at: Instant::now(),
            cpu_us: probe::process_cpu_us(),
            steal: probe::machine_stat().steal_ticks,
        });
    }

    /// Restarts the clock stopped by [`Meter::pause`].
    pub fn resume(&mut self) {
        let Some(pause) = self.pause.take() else {
            return;
        };
        let paused = pause.at.elapsed();
        let cpu_us = probe::process_cpu_us() - pause.cpu_us;
        let steal = probe::machine_stat()
            .steal_ticks
            .saturating_sub(pause.steal);
        self.start += paused;
        self.deadline += paused;
        self.slice_start += paused;
        self.cpu_us += cpu_us;
        self.slice_cpu_us += cpu_us;
        self.steal += steal;
        self.slice_steal += steal;
    }

    /// Measured seconds since the clock started, pauses excluded.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Samples the machine's runnable-thread count.
    pub fn sample_runnable(&mut self) {
        let running = probe::machine_stat().procs_running;
        self.env.peak_runnable = self.env.peak_runnable.max(running);
    }

    /// Stops the clock and fills in the window's time, CPU, slices and
    /// environment. The unfinished last slice is dropped, unless a timed
    /// window has no other.
    pub fn finish(mut self, window: &mut Window) {
        self.sample_runnable();
        if self.slices.is_empty() && self.slice_len.is_some() {
            self.cut();
        }
        window.elapsed_s = self.elapsed_s();
        window.cpu_us = probe::process_cpu_us() - self.cpu_us;
        self.env.steal_ticks = probe::machine_stat().steal_ticks.saturating_sub(self.steal);
        self.env.threads = probe::process_threads();
        self.env.calibration_after_ms = probe::calibration_ms();
        window.env = self.env;
        window.slices = self.slices;
        window.peak_rss_mb = self.peak_rss_mb.unwrap_or_else(probe::peak_rss_mb);
    }
}

/// What one measured window saw.
#[derive(Debug, Default)]
pub struct Window {
    /// Reads sent.
    pub reads: u64,
    /// Write (ingest-ack) latencies.
    pub writes: Latencies,
    /// Admin ops sent (counted as ops, in neither distribution).
    pub admin: u64,
    /// Ops sent.
    pub attempted: u64,
    /// Ops that failed or were refused.
    pub failed: u64,
    /// Failures by category.
    pub failures: BTreeMap<&'static str, u64>,
    /// Measured seconds.
    pub elapsed_s: f64,
    /// Process CPU µs over the window.
    pub cpu_us: f64,
    /// Machine state around the window.
    pub env: Environment,
    /// The window's complete slices.
    pub slices: Vec<Slice>,
    /// `VmHWM` in MB at the end of a timed window, or at the end of the
    /// first pass of a cycled one: later passes repeat its work, and the
    /// memory the allocator keeps from their resets would make the
    /// figure grow with the number of passes, that is with speed.
    pub peak_rss_mb: f64,
    /// Index of the next op in the (cyclic) sequence.
    pub next: usize,
}

impl Window {
    /// Ops completed without failure.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    fn fail(&mut self, category: &'static str) {
        *self.failures.entry(category).or_insert(0) += 1;
    }
}

/// Passed to the per-op hook after each response.
pub struct AfterOp<'a> {
    /// Absolute index in the op sequence.
    pub index: usize,
    /// The op that was sent.
    pub op: &'a Op,
    /// The parsed response, when the op succeeded.
    pub response: Option<&'a Value>,
    /// The span recorder (disabled in untraced runs).
    pub tracer: &'a mut Tracer,
    /// The op's root span.
    pub root: SpanId,
}

/// Why a response is not a success, if it is not.
fn failure_category(response: &Value, id: i64) -> Option<&'static str> {
    if response.get("ok").and_then(Value::as_bool) == Some(true) {
        if response.get("id").and_then(Value::as_i64) == Some(id) {
            return None;
        }
        return Some("wrong_id");
    }
    if response.get("fenced").and_then(Value::as_bool) == Some(true) {
        Some("fenced")
    } else if response.get("retryable").and_then(Value::as_bool) == Some(true) {
        Some("refused")
    } else {
        Some("error")
    }
}

/// Sends one op over `client`, records it, and calls `after` (outside
/// the timed region only in the sense that it is not part of the op's
/// latency). A broken connection is re-opened once; returns `false`
/// when the server is gone.
#[allow(clippy::too_many_arguments)]
fn send(
    client: &mut Client,
    addr: &str,
    op: &Op,
    index: usize,
    window: &mut Window,
    meter: &mut Meter,
    tracer: &mut Tracer,
    after: &mut dyn FnMut(AfterOp<'_>),
) -> bool {
    let root = tracer.begin("op", index as u64, NO_PARENT);
    let rtt_span = match op.kind {
        Kind::Read => "serve.rtt",
        Kind::Write => "serve.rtt_write",
        Kind::Admin => "serve.rtt_admin",
    };
    let rtt = tracer.begin(rtt_span, index as u64, root);
    let sent = Instant::now();
    let reply = client.request_line(&op.line);
    let parsed = reply.as_ref().ok().map(|text| parse(text));
    let nanos = sent.elapsed().as_nanos() as u64;
    tracer.end(rtt);

    let outcome = match (&reply, &parsed) {
        (Err(_), _) => Err("transport"),
        (Ok(_), Some(Err(_)) | None) => Err("bad_response"),
        (Ok(_), Some(Ok(value))) => match failure_category(value, op.id) {
            None => Ok(value),
            Some(category) => Err(category),
        },
    };
    window.attempted += 1;
    let latency = match &outcome {
        Ok(_) => nanos,
        Err(category) => {
            window.failed += 1;
            window.fail(category);
            FAILED
        }
    };
    match op.kind {
        Kind::Read => window.reads += 1,
        Kind::Write => window.writes.push(latency),
        Kind::Admin => window.admin += 1,
    }
    meter.record(op.kind, latency);
    if reply.is_err() {
        match Client::connect(addr) {
            Ok(fresh) => *client = fresh,
            Err(_) => {
                tracer.end(root);
                return false;
            }
        }
    }
    after(AfterOp {
        index,
        op,
        response: outcome.ok(),
        tracer,
        root,
    });
    tracer.end(root);
    if index.is_multiple_of(256) {
        meter.sample_runnable();
    }
    true
}

/// Sends ops `first, first+1, …` (cyclically) for `seconds`, one at a
/// time, and calls `after` once per op.
pub fn closed_loop(
    client: &mut Client,
    addr: &str,
    ops: &[Op],
    first: usize,
    seconds: f64,
    tracer: &mut Tracer,
    after: &mut dyn FnMut(AfterOp<'_>),
) -> Window {
    let mut window = Window::default();
    let mut meter = Meter::timed();
    let mut index = first;
    while meter.elapsed_s() < seconds {
        let op = &ops[index % ops.len()];
        if !send(
            client,
            addr,
            op,
            index,
            &mut window,
            &mut meter,
            tracer,
            after,
        ) {
            break;
        }
        index += 1;
    }
    meter.finish(&mut window);
    window.next = index;
    window
}

/// Sends whole passes over `ops` for `seconds`. Before each pass, with
/// the clock stopped, `reset` restores the starting state and returns a
/// connection to it (client and address), so every pass does the same
/// work on the same state however fast the machine is. Each pass is
/// one slice; the pass the time cuts short counts its ops but enters no
/// metric. Op indices count on across passes.
pub fn cycled_loop(
    ops: &[Op],
    seconds: f64,
    tracer: &mut Tracer,
    reset: &mut dyn FnMut() -> Result<(Client, String), String>,
    after: &mut dyn FnMut(AfterOp<'_>),
) -> Result<Window, String> {
    let mut window = Window::default();
    let mut meter = Meter::cycled();
    let mut index = 0;
    'passes: while meter.elapsed_s() < seconds {
        meter.pause();
        let (mut client, addr) = reset()?;
        meter.resume();
        for op in ops {
            if meter.elapsed_s() >= seconds
                || !send(
                    &mut client,
                    &addr,
                    op,
                    index,
                    &mut window,
                    &mut meter,
                    tracer,
                    after,
                )
            {
                break 'passes;
            }
            index += 1;
        }
        meter.cut();
    }
    meter.finish(&mut window);
    window.next = index;
    Ok(window)
}
