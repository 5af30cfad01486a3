//! The discrete-event engine.
//!
//! [`Engine<W>`] owns the virtual clock and a queue of events, where an event
//! is a boxed closure over a world `W` owned by the caller. Keeping the world
//! outside the engine lets handlers receive `(&mut W, &mut Engine<W>)`
//! simultaneously — a handler can both mutate simulation state and schedule
//! follow-up events.
//!
//! Higher layers (the HIP runtime) interleave this queue with the fluid-flow
//! completions of `ifsim-fabric`: before popping, they compare
//! [`Engine::peek_time`] against the flow network's next completion instant
//! and process whichever comes first.

use crate::queue::EventQueue;
use crate::time::{Dur, Time};

/// An event handler: runs at its scheduled instant with exclusive access to
/// the world and the engine.
pub type Event<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

/// A deterministic discrete-event engine over world type `W`.
pub struct Engine<W> {
    now: Time,
    queue: EventQueue<Event<W>>,
    steps: u64,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Engine<W> {
    /// A fresh engine at `Time::ZERO`.
    pub fn new() -> Self {
        Engine {
            now: Time::ZERO,
            queue: EventQueue::new(),
            steps: 0,
        }
    }

    /// The current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events dispatched so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule an event at an absolute instant.
    ///
    /// Panics if `at` is in the past: the simulation arrow of time only
    /// points forward.
    pub fn schedule_at(&mut self, at: Time, ev: impl FnOnce(&mut W, &mut Engine<W>) + 'static) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        self.queue.push(at, Box::new(ev));
    }

    /// Schedule an event `after` from now.
    pub fn schedule_in(&mut self, after: Dur, ev: impl FnOnce(&mut W, &mut Engine<W>) + 'static) {
        let at = self.now + after;
        self.queue.push(at, Box::new(ev));
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// Advance the clock without dispatching anything.
    ///
    /// Used by hybrid drivers that process an *external* event (e.g. a fabric
    /// flow completion) occurring before the next queued event. Panics if
    /// this would skip over a queued event or move backwards.
    pub fn advance_to(&mut self, t: Time) {
        assert!(
            t >= self.now,
            "clock moved backwards: to={t} now={}",
            self.now
        );
        if let Some(next) = self.queue.peek_time() {
            assert!(
                t <= next,
                "advance_to({t}) would skip a queued event at {next}"
            );
        }
        self.now = t;
    }

    /// Dispatch the next event. Returns `false` if the queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        match self.queue.pop() {
            Some((t, ev)) => {
                debug_assert!(t >= self.now);
                self.now = t;
                self.steps += 1;
                ev(world, self);
                true
            }
            None => false,
        }
    }

    /// Run until the queue drains.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<(f64, &'static str)>,
    }

    #[test]
    fn events_run_in_time_order_and_advance_clock() {
        let mut eng = Engine::<World>::new();
        let mut w = World::default();
        eng.schedule_at(Time::from_ns(20.0), |w, e| {
            w.log.push((e.now().as_ns(), "b"))
        });
        eng.schedule_at(Time::from_ns(10.0), |w, e| {
            w.log.push((e.now().as_ns(), "a"))
        });
        eng.run(&mut w);
        assert_eq!(w.log, vec![(10.0, "a"), (20.0, "b")]);
        assert_eq!(eng.now(), Time::from_ns(20.0));
        assert_eq!(eng.steps(), 2);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut eng = Engine::<World>::new();
        let mut w = World::default();
        eng.schedule_at(Time::from_ns(5.0), |_, e| {
            e.schedule_in(Dur::from_ns(5.0), |w: &mut World, e: &mut Engine<World>| {
                w.log.push((e.now().as_ns(), "chained"));
            });
        });
        eng.run(&mut w);
        assert_eq!(w.log, vec![(10.0, "chained")]);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut eng = Engine::<World>::new();
        let mut w = World::default();
        eng.schedule_at(Time::from_ns(10.0), |_, _| {});
        eng.step(&mut w);
        eng.schedule_at(Time::from_ns(5.0), |_, _| {});
    }

    #[test]
    fn advance_to_moves_clock_between_events() {
        let mut eng = Engine::<World>::new();
        eng.schedule_at(Time::from_ns(100.0), |_, _| {});
        eng.advance_to(Time::from_ns(50.0));
        assert_eq!(eng.now(), Time::from_ns(50.0));
    }

    #[test]
    #[should_panic(expected = "would skip a queued event")]
    fn advance_past_queued_event_panics() {
        let mut eng = Engine::<World>::new();
        eng.schedule_at(Time::from_ns(10.0), |_, _| {});
        eng.advance_to(Time::from_ns(20.0));
    }
}
