//! The radio lookahead: every leg's [`RadioModel`] stepped over a run's
//! radio grid beside the session instead of inside it (DESIGN.md §5).
//!
//! The radio is open-loop. A model's samples follow from the tick time,
//! the flight plan's position and the model's own RNG streams; nothing
//! the traffic, the CCs or the paths do reaches them. So one scoped helper
//! thread steps the whole run's radio ahead of the session and hands the
//! samples over in batches, and the session applies each one at its tick
//! exactly as if it had stepped the model itself. When the OS refuses the
//! thread, the session fills the same batches inline from the same
//! producer: there is one implementation of the radio work.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{Builder, Scope};

use rpav_lte::{RadioModel, RadioSample};
use rpav_sim::{SimDuration, SimTime};
use rpav_uav::{FlightPlan, Position};

/// Radio ticks per hand-off batch.
const BATCH_TICKS: usize = 64;

/// One leg's radio at one radio tick, with the position it was stepped at.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RadioTick {
    pub pos: Position,
    pub sample: RadioSample,
}

/// The batch producer: every leg's model stepped at `t_k = k·tick` for
/// every `t_k < end`, at the flight plan's position.
pub(crate) struct RadioTrace {
    models: Vec<RadioModel>,
    plan: FlightPlan,
    tick: SimDuration,
    next: SimTime,
    end: SimTime,
}

impl RadioTrace {
    /// Step `models` (one per leg, at least one) along `plan` until `end`.
    /// Every leg ticks on the first model's cadence.
    pub fn new(models: Vec<RadioModel>, plan: FlightPlan, end: SimTime) -> Self {
        let tick = models[0].tick();
        RadioTrace {
            models,
            plan,
            tick,
            next: SimTime::ZERO,
            end,
        }
    }

    /// How many radio ticks the run has: one trace row each.
    pub fn ticks(&self) -> usize {
        let tick = self.tick.as_micros();
        self.end.as_micros().div_ceil(tick) as usize
    }

    /// Refill `batch` with the next (up to) [`BATCH_TICKS`] radio ticks,
    /// legs in order within a tick. Empty once the grid is used up.
    fn fill(&mut self, batch: &mut Vec<RadioTick>) {
        batch.clear();
        for _ in 0..BATCH_TICKS {
            if self.next >= self.end {
                break;
            }
            let pos = self.plan.position_at(self.next);
            for model in &mut self.models {
                let sample = model.step(self.next, &pos);
                batch.push(RadioTick { pos, sample });
            }
            self.next += self.tick;
        }
    }
}

/// The bounded pair of channels between a session and its helper:
/// `filled` carries stepped batches to the session, `spent` carries read
/// ones back to be refilled. Two buffers circulate, so each direction
/// holds at most one. It is a `Mutex` and a `Condvar` rather than two
/// `std::sync::mpsc` channels because those allocate a waker entry the
/// first time a side blocks, which would make a run's allocation count
/// depend on thread timing.
pub(crate) struct Handoff {
    slots: Mutex<Slots>,
    changed: Condvar,
}

struct Slots {
    /// The producer while no helper holds it: before the helper starts,
    /// after it stops, and for the whole run when there is no helper.
    trace: Option<RadioTrace>,
    filled: Option<Vec<RadioTick>>,
    spent: Option<Vec<RadioTick>>,
    /// Set by whichever side stops first: the session when its run ends
    /// (or unwinds), the helper only if it panics. The other side then
    /// stops waiting.
    closed: bool,
}

impl Handoff {
    pub fn new(trace: RadioTrace) -> Self {
        Handoff {
            slots: Mutex::new(Slots {
                trace: Some(trace),
                filled: None,
                spent: None,
                closed: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Start the lookahead: a helper thread in `scope` when `spawn` asks
    /// for one and the OS grants it, the inline producer otherwise. The
    /// batch buffers are allocated here, on the session thread, and
    /// recycled for the whole run.
    pub fn start<'scope, 'env>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        spawn: bool,
    ) -> RadioFeed<'env> {
        let (tick, legs) = {
            let slots = self.lock();
            let trace = slots.trace.as_ref().expect("a lookahead starts once");
            (trace.tick, trace.models.len())
        };
        let capacity = BATCH_TICKS * legs;
        let helper = spawn && Builder::new().spawn_scoped(scope, || self.serve()).is_ok();
        if helper {
            self.put(|s| s.spent = Some(Vec::with_capacity(capacity)));
        }
        RadioFeed {
            handoff: self,
            batch: Vec::with_capacity(capacity),
            read: 0,
            legs,
            tick,
            helper,
        }
    }

    /// The models, stepped, once the scope that ran the lookahead ended.
    pub fn into_models(self) -> Vec<RadioModel> {
        let slots = self
            .slots
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        slots
            .trace
            .expect("the producer is parked once its helper is joined")
            .models
    }

    /// The helper thread: refill every spent buffer until the session
    /// closes the hand-off, then park the producer again.
    fn serve(&self) {
        let _stop = Stop(self);
        let mut trace = self
            .lock()
            .trace
            .take()
            .expect("the producer is parked until the helper starts");
        while let Some(mut batch) = self.wait(|s| s.spent.take()) {
            trace.fill(&mut batch);
            self.put(|s| s.filled = Some(batch));
        }
        self.lock().trace = Some(trace);
    }

    /// Tell the other side this one has stopped.
    fn close(&self) {
        self.put(|s| s.closed = true);
    }

    /// Every update of the slots is a single move, so a lock poisoned by
    /// the other side's panic still guards whole data; recovering it also
    /// keeps the closing `Drop`s from panicking in turn.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn put(&self, put: impl FnOnce(&mut Slots)) {
        put(&mut self.lock());
        self.changed.notify_one();
    }

    /// Block until `take` yields, or return `None` once the other side
    /// has stopped.
    fn wait<T>(&self, mut take: impl FnMut(&mut Slots) -> Option<T>) -> Option<T> {
        let mut slots = self.lock();
        loop {
            if let Some(v) = take(&mut slots) {
                return Some(v);
            }
            if slots.closed {
                return None;
            }
            slots = self
                .changed
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Closes the hand-off when its holder stops, normally or by a panic,
/// so the other side never waits on it forever.
struct Stop<'a>(&'a Handoff);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The session's end of the lookahead: the batch being read and how far.
pub(crate) struct RadioFeed<'h> {
    handoff: &'h Handoff,
    batch: Vec<RadioTick>,
    read: usize,
    legs: usize,
    tick: SimDuration,
    /// Whether a helper fills the batches; otherwise the session fills
    /// them from the parked producer.
    helper: bool,
}

impl RadioFeed<'_> {
    /// Radio tick length.
    pub fn tick(&self) -> SimDuration {
        self.tick
    }

    /// The radio tick at `now`, one entry per leg in leg order.
    ///
    /// # Panics
    /// If `now` is not the next instant of the run's radio grid, or if the
    /// helper stopped: the session must visit every radio tick once.
    pub fn next(&mut self, now: SimTime) -> &[RadioTick] {
        if self.read == self.batch.len() {
            self.refill();
            self.read = 0;
        }
        let at = self.read;
        self.read += self.legs;
        let tick = self
            .batch
            .get(at..self.read)
            .expect("the radio grid ran out before the session did");
        assert_eq!(tick[0].sample.now, now, "radio lookahead out of step");
        tick
    }

    fn refill(&mut self) {
        if !self.helper {
            let mut slots = self.handoff.lock();
            let trace = slots.trace.as_mut().expect("no helper holds the producer");
            trace.fill(&mut self.batch);
            return;
        }
        let filled = self
            .handoff
            .wait(|s| s.filled.take())
            .expect("the radio helper stopped");
        let spent = std::mem::replace(&mut self.batch, filled);
        self.handoff.put(|s| s.spent = Some(spent));
    }
}

impl Drop for RadioFeed<'_> {
    fn drop(&mut self) {
        self.handoff.close();
    }
}
