//! N-rank tagged messaging over the multi-node fabric.
//!
//! [`Session`](crate::Session) models two ranks in microscopic detail;
//! collective-pattern studies need *N* ranks exchanging tagged messages
//! with library overheads applied per message. [`MultiSession`] layers
//! exactly that over [`protosim::multinode`]: per ordered rank pair a
//! FIFO of in-flight payloads matched against a FIFO of posted
//! receives (the same match discipline mplite's socket mesh gives the
//! real backend), with the bound [`LibProfile`]'s per-message costs —
//! send/receive overheads, copy passes, optional byte checking, and
//! the eager→rendezvous handshake — charged on the endpoint CPUs.
//!
//! Host cost follows the traffic, not the world size: each receiver
//! keeps a list of only the senders that have reached it, created on
//! first use, so a session is O(n + active pairs) in memory. Payloads
//! travel as one shared [`Payload`] from `send` to the receive
//! continuation and are never copied on the way.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use faultlab::DegradeWindow;
use protosim::multinode::{self, MultiEngine};
use simcore::SimDuration;

use crate::profile::LibProfile;

/// A delivered message body. Reference-counted so queueing and delivery
/// never copy simulated payload bytes at host level.
pub type Payload = Rc<Vec<u8>>;

/// Completion callback for a posted receive.
pub type RecvContinuation = Box<dyn FnOnce(&mut MultiEngine, Payload)>;

#[derive(Default)]
struct PairQueues {
    /// Arrived-but-unclaimed messages, FIFO.
    arrived: VecDeque<(i32, Payload)>,
    /// Posted-but-unmatched receives, FIFO.
    posted: VecDeque<(i32, RecvContinuation)>,
}

/// Receiver `to`'s queues for the pairs that have seen traffic,
/// `(from, queues)` in first-use order. A linear scan suffices: in the
/// collective schedules a rank hears from at most about log2(n) peers.
#[derive(Default)]
struct Inbox(Vec<(usize, PairQueues)>);

impl Inbox {
    /// The `from → this rank` queues, created empty on first use.
    fn pair(&mut self, from: usize) -> &mut PairQueues {
        let i = match self.0.iter().position(|(f, _)| *f == from) {
            Some(i) => i,
            None => {
                self.0.push((from, PairQueues::default()));
                self.0.len() - 1
            }
        };
        &mut self.0[i].1
    }
}

struct Inner {
    profile: LibProfile,
    n: usize,
    /// Indexed by receiving rank.
    inboxes: RefCell<Vec<Inbox>>,
    /// Extra per-send CPU microseconds per rank (degradation studies).
    extra_send_us: RefCell<Vec<f64>>,
    /// Timed degradation windows from a fault plan: sends issued while
    /// a window is open run at the window's fraction of nominal speed.
    degrade: RefCell<Vec<DegradeWindow>>,
}

/// An N-rank tagged messaging session bound to one library profile.
/// Cheap to clone; clones share the queues.
#[derive(Clone)]
pub struct MultiSession {
    inner: Rc<Inner>,
}

impl MultiSession {
    /// A session for `n` ranks under `profile`'s per-message costs.
    pub fn new(profile: LibProfile, n: usize) -> MultiSession {
        MultiSession {
            inner: Rc::new(Inner {
                profile,
                n,
                inboxes: RefCell::new((0..n).map(|_| Inbox::default()).collect()),
                extra_send_us: RefCell::new(vec![0.0; n]),
                degrade: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.inner.n
    }

    /// Add `us` microseconds of CPU work to every send `rank` issues —
    /// the degraded-rank knob the chaos sweeps turn.
    pub fn set_rank_overhead_us(&self, rank: usize, us: f64) {
        self.inner.extra_send_us.borrow_mut()[rank] = us;
    }

    /// Install a fault plan's timed degradation windows: a send issued
    /// while a window contains the current simulated time has its
    /// library work stretched by `1/factor` (every rank is affected —
    /// the windows model fabric-wide congestion, not one slow host).
    pub fn set_degrade_windows(&self, windows: Vec<DegradeWindow>) {
        *self.inner.degrade.borrow_mut() = windows;
    }

    /// The work stretch applied at `now_us`: the reciprocal of the
    /// smallest open window factor, `1.0` when no window is open.
    fn degrade_stretch(&self, now_us: f64) -> f64 {
        let mut factor = 1.0f64;
        for w in self.inner.degrade.borrow().iter() {
            if w.contains(now_us) {
                factor = factor.min(w.factor);
            }
        }
        1.0 / factor
    }

    /// Send `payload` from `from` to `to` under `tag`. The sender's
    /// library work is charged on its CPU now; the fabric then carries
    /// the bytes (with a rendezvous handshake above the profile's
    /// threshold) and the receiver's library work is charged on
    /// arrival, after which the payload matches a posted receive.
    // analyze: hot
    pub fn send(&self, eng: &mut MultiEngine, from: usize, to: usize, tag: i32, payload: Payload) {
        assert!(from != to, "collective schedules never self-send");
        let bytes = payload.len() as u64;
        let p = &self.inner.profile;
        let memcpy = eng.world.spec.host.cpu.memcpy_bps;
        let send_work = SimDuration::from_micros_f64(
            p.send_overhead_us + self.inner.extra_send_us.borrow()[from],
        ) + SimDuration::for_bytes(bytes * u64::from(p.send_copies), memcpy);
        let now = eng.now();
        let stretch = self.degrade_stretch(now.as_micros_f64());
        let send_work = if stretch > 1.0 {
            SimDuration::from_micros_f64(send_work.as_micros_f64() * stretch)
        } else {
            send_work
        };
        let ready = eng.world.nodes[from].cpu.serve_for(now, send_work, bytes);
        let this = self.clone();
        let needs_handshake = matches!(p.rendezvous_bytes, Some(t) if bytes > t);
        let ctrl = p.ctrl_bytes.max(1);
        eng.schedule_at(ready, move |e| {
            if needs_handshake {
                let this2 = this.clone();
                // RTS to the receiver, CTS back, then the payload.
                multinode::send(
                    e,
                    from,
                    to,
                    ctrl,
                    Box::new(move |e| {
                        let this3 = this2.clone();
                        multinode::send(
                            e,
                            to,
                            from,
                            ctrl,
                            Box::new(move |e| this3.send_data(e, from, to, tag, payload)),
                        );
                    }),
                );
            } else {
                this.send_data(e, from, to, tag, payload);
            }
        });
    }

    // analyze: hot
    fn send_data(&self, eng: &mut MultiEngine, from: usize, to: usize, tag: i32, payload: Payload) {
        let bytes = payload.len() as u64;
        let this = self.clone();
        multinode::send(
            eng,
            from,
            to,
            bytes.max(1),
            Box::new(move |e| {
                // Receiver-side library work: overhead, drain copies,
                // and the optional full-payload byte check.
                let p = &this.inner.profile;
                let memcpy = e.world.spec.host.cpu.memcpy_bps;
                let recv_work = SimDuration::from_micros_f64(p.recv_overhead_us)
                    + SimDuration::for_bytes(bytes * u64::from(p.recv_copies), memcpy)
                    + SimDuration::for_bytes(bytes, p.byte_check_bps);
                let now = e.now();
                let done = e.world.nodes[to].cpu.serve_for(now, recv_work, bytes);
                let this2 = this.clone();
                e.schedule_at(done, move |e| this2.deliver(e, from, to, tag, payload));
            }),
        );
    }

    // analyze: hot
    fn deliver(&self, eng: &mut MultiEngine, from: usize, to: usize, tag: i32, payload: Payload) {
        let mut inboxes = self.inner.inboxes.borrow_mut();
        let q = inboxes[to].pair(from);
        if let Some((want, k)) = q.posted.pop_front() {
            assert_eq!(
                want, tag,
                "rank {to} posted tag {want} from {from} but got {tag}: collective tags desynchronized"
            );
            drop(inboxes);
            k(eng, payload);
        } else {
            q.arrived.push_back((tag, payload));
        }
    }

    /// Post a receive at rank `to` for the next message from `from`
    /// under `tag`; `k` runs (as a scheduled event, never synchronously)
    /// once the payload is in `to`'s memory and past the library's
    /// receive path.
    // analyze: hot
    pub fn post_recv(
        &self,
        eng: &mut MultiEngine,
        to: usize,
        from: usize,
        tag: i32,
        k: RecvContinuation,
    ) {
        let mut inboxes = self.inner.inboxes.borrow_mut();
        let q = inboxes[to].pair(from);
        if let Some((got, payload)) = q.arrived.pop_front() {
            assert_eq!(
                got, tag,
                "rank {to} posted tag {tag} from {from} but head-of-line is {got}: collective tags desynchronized"
            );
            drop(inboxes);
            let now = eng.now();
            eng.schedule_at(now, move |e| k(e, payload));
        } else {
            q.posted.push_back((tag, k));
        }
    }

    /// True if any queue still holds an unmatched arrival or posted
    /// receive — a completed run should leave everything drained.
    pub fn has_unmatched(&self) -> bool {
        self.inner
            .inboxes
            .borrow()
            .iter()
            .flat_map(|inbox| &inbox.0)
            .any(|(_, q)| !q.arrived.is_empty() || !q.posted.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protosim::multinode::MultiNet;

    fn engine(n: usize) -> MultiEngine {
        MultiNet::engine(hwmodel::presets::pcs_ga620(), n)
    }

    #[test]
    fn posted_then_sent_and_sent_then_posted_both_deliver() {
        let mut eng = engine(3);
        let sess = MultiSession::new(crate::libs::mpich(Default::default()).profile, 3);
        let got: Rc<RefCell<Vec<(usize, Vec<u8>)>>> = Rc::new(RefCell::new(Vec::new()));
        // Receive posted before the send exists.
        let g = Rc::clone(&got);
        sess.post_recv(
            &mut eng,
            1,
            0,
            7,
            Box::new(move |_, p| g.borrow_mut().push((1, p.to_vec()))),
        );
        sess.send(&mut eng, 0, 1, 7, Rc::new(b"early".to_vec()));
        // Send lands before the receive is posted.
        sess.send(&mut eng, 2, 1, 7, Rc::new(b"late".to_vec()));
        let sess2 = sess.clone();
        let g = Rc::clone(&got);
        let mut eng2 = eng;
        eng2.schedule_in(SimDuration::from_secs_f64(1.0), move |e| {
            let g = Rc::clone(&g);
            sess2.post_recv(
                e,
                1,
                2,
                7,
                Box::new(move |_, p| g.borrow_mut().push((2, p.to_vec()))),
            );
        });
        eng2.run();
        let got = got.borrow();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&(1, b"early".to_vec())));
        assert!(got.contains(&(2, b"late".to_vec())));
    }

    #[test]
    fn per_pair_fifo_order_is_preserved() {
        let mut eng = engine(2);
        let sess = MultiSession::new(crate::libs::mpich(Default::default()).profile, 2);
        for i in 0..4u8 {
            sess.send(&mut eng, 0, 1, 9, Rc::new(vec![i; 16]));
        }
        let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..4 {
            let g = Rc::clone(&got);
            sess.post_recv(
                &mut eng,
                1,
                0,
                9,
                Box::new(move |_, p| g.borrow_mut().push(p[0])),
            );
        }
        eng.run();
        assert_eq!(*got.borrow(), vec![0, 1, 2, 3]);
        assert!(!sess.has_unmatched());
    }

    #[test]
    fn unmatched_receive_is_reported() {
        let mut eng = engine(4);
        let sess = MultiSession::new(crate::libs::mpich(Default::default()).profile, 4);
        sess.send(&mut eng, 0, 3, 5, Rc::new(vec![1]));
        sess.post_recv(&mut eng, 3, 0, 5, Box::new(|_, _| {}));
        sess.post_recv(&mut eng, 3, 2, 5, Box::new(|_, _| {}));
        eng.run();
        assert!(
            sess.has_unmatched(),
            "the receive from rank 2 never matched"
        );
    }

    #[test]
    fn degraded_rank_slows_its_sends() {
        let time_with = |extra: f64| {
            let mut eng = engine(2);
            let sess = MultiSession::new(crate::libs::mpich(Default::default()).profile, 2);
            sess.set_rank_overhead_us(0, extra);
            sess.send(&mut eng, 0, 1, 1, Rc::new(vec![0u8; 1024]));
            sess.post_recv(&mut eng, 1, 0, 1, Box::new(|_, _| {}));
            eng.run().as_secs_f64()
        };
        assert!(time_with(500.0) > time_with(0.0));
    }

    #[test]
    fn open_degrade_window_stretches_sends() {
        let time_with = |windows: Vec<DegradeWindow>| {
            let mut eng = engine(2);
            let sess = MultiSession::new(crate::libs::mpich(Default::default()).profile, 2);
            sess.set_degrade_windows(windows);
            sess.send(&mut eng, 0, 1, 1, Rc::new(vec![0u8; 4096]));
            sess.post_recv(&mut eng, 1, 0, 1, Box::new(|_, _| {}));
            eng.run().as_secs_f64()
        };
        let clean = time_with(Vec::new());
        let open = time_with(vec![DegradeWindow {
            start_us: 0.0,
            end_us: 1e9,
            factor: 0.1,
        }]);
        let closed = time_with(vec![DegradeWindow {
            start_us: 1e9,
            end_us: 2e9,
            factor: 0.1,
        }]);
        assert!(open > clean, "{open} vs {clean}");
        assert_eq!(closed, clean);
    }

    #[test]
    fn rendezvous_threshold_adds_round_trips() {
        let time_with = |rendezvous: Option<u64>| {
            let mut eng = engine(2);
            let mut profile = crate::libs::mpich(Default::default()).profile;
            profile.rendezvous_bytes = rendezvous;
            let sess = MultiSession::new(profile, 2);
            sess.send(&mut eng, 0, 1, 1, Rc::new(vec![0u8; 64 * 1024]));
            sess.post_recv(&mut eng, 1, 0, 1, Box::new(|_, _| {}));
            eng.run().as_secs_f64()
        };
        assert!(time_with(Some(1024)) > time_with(None));
    }
}
