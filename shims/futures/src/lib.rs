//! Offline stand-in for the subset of the `futures` 0.3 API used by this
//! workspace: [`executor::block_on`] (a single-threaded `Waker`-based poll
//! loop), [`future::join_all`] (drive many futures to completion on one
//! poll loop) and [`future::poll_fn`].
//!
//! The build container has no route to crates.io; see `shims/README.md`.
//! Upstream's combinator zoo, streams, sinks, and `select!` machinery are
//! not reproduced — only the executor contract the service layer relies on:
//!
//! * `block_on` parks the calling thread between polls and re-polls only
//!   when the future's [`Waker`](std::task::Waker) fires (no busy spin), so
//!   a producer awaiting backpressure capacity costs nothing while it
//!   waits;
//! * `join_all` re-polls only futures that are still pending, completing
//!   when all children have.
//!
//! Swapping back to the real `futures` crate is the one-line dependency
//! change documented in `shims/README.md` — the service layer compiles
//! against this exact API subset.

#![warn(missing_docs)]

/// Future execution: the single-threaded [`block_on`](executor::block_on).
pub mod executor {
    use std::future::Future;
    use std::sync::{Arc, Condvar, Mutex};
    use std::task::{Context, Poll, Wake, Waker};

    /// One thread's parking slot: `block_on` parks on it between polls and
    /// the future's waker unparks it. A `notified` flag absorbs the wake /
    /// park race (a wake landing while the future is being polled must not
    /// be lost).
    struct ThreadParker {
        lock: Mutex<bool>, // the notified flag
        cond: Condvar,
    }

    impl ThreadParker {
        fn new() -> Self {
            ThreadParker { lock: Mutex::new(false), cond: Condvar::new() }
        }

        fn park(&self) {
            let mut notified = self.lock.lock().expect("parker mutex");
            while !*notified {
                notified = self.cond.wait(notified).expect("parker mutex");
            }
            *notified = false;
        }
    }

    impl Wake for ThreadParker {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            let mut notified = self.lock.lock().expect("parker mutex");
            *notified = true;
            self.cond.notify_one();
        }
    }

    /// Runs `fut` to completion on the calling thread: the single-threaded
    /// poll loop. The thread parks between polls and is unparked by the
    /// future's waker, so pending futures consume no CPU.
    ///
    /// # Examples
    ///
    /// ```
    /// let out = futures::executor::block_on(async { 2 + 2 });
    /// assert_eq!(out, 4);
    /// ```
    pub fn block_on<F: Future>(fut: F) -> F::Output {
        let parker = Arc::new(ThreadParker::new());
        let waker = Waker::from(Arc::clone(&parker));
        let mut cx = Context::from_waker(&waker);
        let mut fut = std::pin::pin!(fut);
        loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(out) => return out,
                Poll::Pending => parker.park(),
            }
        }
    }
}

/// Future constructors and combinators: [`join_all`](future::join_all),
/// [`poll_fn`](future::poll_fn).
pub mod future {
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Poll};

    /// One [`JoinAll`] child: `Ok(future)` while pending, `Err(output)`
    /// once complete.
    type JoinSlot<F> = Result<Pin<Box<F>>, Option<<F as Future>::Output>>;

    /// Future returned by [`join_all`].
    #[must_use = "futures do nothing unless polled"]
    pub struct JoinAll<F: Future> {
        slots: Vec<JoinSlot<F>>,
    }

    /// Children are heap-pinned (`Pin<Box<F>>`) and outputs are plain
    /// moves, so the combinator itself needs no structural pinning.
    impl<F: Future> Unpin for JoinAll<F> {}

    impl<F: Future> std::fmt::Debug for JoinAll<F> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("JoinAll").field("len", &self.slots.len()).finish()
        }
    }

    /// Drives every future in `iter` to completion concurrently on one
    /// poll loop, resolving to their outputs in input order.
    ///
    /// Each poll of the `JoinAll` re-polls only the children still
    /// pending; a child's waker is the `JoinAll`'s waker, so any child
    /// wake re-polls the set (coarse but correct — the workspace drives a
    /// handful of ingest pumps, not thousands of tasks).
    ///
    /// # Examples
    ///
    /// ```
    /// let outs = futures::executor::block_on(futures::future::join_all(
    ///     (0..4).map(|i| async move { i * 2 }),
    /// ));
    /// assert_eq!(outs, vec![0, 2, 4, 6]);
    /// ```
    pub fn join_all<I>(iter: I) -> JoinAll<I::Item>
    where
        I: IntoIterator,
        I::Item: Future,
    {
        JoinAll { slots: iter.into_iter().map(|f| Ok(Box::pin(f))).collect() }
    }

    impl<F: Future> Future for JoinAll<F> {
        type Output = Vec<F::Output>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let this = Pin::into_inner(self);
            let mut all_done = true;
            for slot in &mut this.slots {
                if let Ok(fut) = slot {
                    match fut.as_mut().poll(cx) {
                        Poll::Ready(out) => *slot = Err(Some(out)),
                        Poll::Pending => all_done = false,
                    }
                }
            }
            if all_done {
                Poll::Ready(
                    this.slots
                        .iter_mut()
                        .map(|s| match s {
                            Err(out) => out.take().expect("output taken once"),
                            Ok(_) => unreachable!("all_done implies no pending slot"),
                        })
                        .collect(),
                )
            } else {
                Poll::Pending
            }
        }
    }

    /// Future returned by [`poll_fn`].
    #[must_use = "futures do nothing unless polled"]
    pub struct PollFn<F> {
        f: F,
    }

    impl<F> std::fmt::Debug for PollFn<F> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("PollFn")
        }
    }

    /// A future driven by the given poll closure (upstream
    /// `futures::future::poll_fn`).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::task::Poll;
    ///
    /// let out = futures::executor::block_on(futures::future::poll_fn(|_cx| Poll::Ready(7)));
    /// assert_eq!(out, 7);
    /// ```
    pub fn poll_fn<T, F>(f: F) -> PollFn<F>
    where
        F: FnMut(&mut Context<'_>) -> Poll<T>,
    {
        PollFn { f }
    }

    impl<T, F> Future for PollFn<F>
    where
        F: FnMut(&mut Context<'_>) -> Poll<T>,
    {
        type Output = T;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
            // SAFETY-free projection: `f` is never pinned-projected, we
            // only call it by `&mut` — PollFn is Unpin whenever F is, and
            // we require no structural pinning.
            (unsafe { &mut Pin::into_inner_unchecked(self).f })(cx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::executor::block_on;
    use super::future::{join_all, poll_fn};
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::{Arc, Mutex};
    use std::task::{Context, Poll, Waker};

    /// A future that stays pending until an external thread wakes it —
    /// exercises the real waker path (no immediate-ready shortcut).
    type SignalState = Arc<Mutex<(bool, Option<Waker>)>>;

    struct ExternalSignal {
        state: SignalState,
    }

    impl ExternalSignal {
        fn new() -> (Self, SignalState) {
            let state = Arc::new(Mutex::new((false, None)));
            (ExternalSignal { state: Arc::clone(&state) }, state)
        }

        fn fire(state: &SignalState) {
            let mut s = state.lock().unwrap();
            s.0 = true;
            if let Some(w) = s.1.take() {
                w.wake();
            }
        }
    }

    impl Future for ExternalSignal {
        type Output = u32;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
            let mut s = self.state.lock().unwrap();
            if s.0 {
                Poll::Ready(99)
            } else {
                s.1 = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    #[test]
    fn block_on_immediate() {
        assert_eq!(block_on(async { "x" }), "x");
    }

    #[test]
    fn block_on_parks_until_woken() {
        let (fut, state) = ExternalSignal::new();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            ExternalSignal::fire(&state);
        });
        assert_eq!(block_on(fut), 99);
        t.join().unwrap();
    }

    #[test]
    fn join_all_mixes_ready_and_pending() {
        let (fut, state) = ExternalSignal::new();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            ExternalSignal::fire(&state);
        });
        let outs = block_on(join_all(vec![
            Box::pin(async { 1u32 }) as Pin<Box<dyn Future<Output = u32> + Send>>,
            Box::pin(fut),
            Box::pin(async { 3u32 }),
        ]));
        assert_eq!(outs, vec![1, 99, 3]);
        t.join().unwrap();
    }

    #[test]
    fn poll_fn_counts_polls() {
        let mut polls = 0;
        let out = block_on(poll_fn(move |cx| {
            polls += 1;
            if polls < 3 {
                cx.waker().wake_by_ref();
                Poll::Pending
            } else {
                Poll::Ready(polls)
            }
        }));
        assert_eq!(out, 3);
    }
}
